#!/usr/bin/env bash
# SIGTERM is alpd's normal stop: the daemon must drain, exit 0, and leave
# its --cache-file image behind so that a restart starts warm.
#
#   alpd_sigterm.sh <alpd> <workdir> [early]
#
# By default the signal is sent once alpd has announced itself. With
# "early" it is sent as soon as the socket file exists, before alpd may
# have installed its handlers, 20 times over.
set -u

ALPD=$1
WORK=$2
MODE=${3:-announced}
SOCK=$WORK/alpd_sigterm.$$.sock
IMAGE=$WORK/alpd_sigterm.$$.cache
LOG=$WORK/alpd_sigterm.$$.log

fail() {
  echo "alpd_sigterm: FAIL: $1" >&2
  [ -n "${PID:-}" ] && kill -KILL "$PID" 2> /dev/null
  rm -f "$SOCK" "$IMAGE" "$LOG"
  exit 1
}

# Starts alpd, signals it at the point MODE names, and checks that it
# exited 0 and saved its image.
stop_once() {
  rm -f "$SOCK" "$IMAGE" "$LOG"
  "$ALPD" --socket="$SOCK" --threads=1 --cache-file="$IMAGE" > "$LOG" &
  PID=$!
  if [ "$MODE" = early ]; then
    # A bare spin: anything slower lets alpd finish starting first.
    SPINS=0
    while [ ! -S "$SOCK" ] && [ "$SPINS" -lt 1000000 ]; do
      SPINS=$((SPINS + 1))
    done
    [ -S "$SOCK" ] || fail "alpd did not create its socket"
  else
    for _ in $(seq 1 100); do
      grep -q "listening on" "$LOG" 2> /dev/null && break
      sleep 0.1
    done
    grep -q "listening on" "$LOG" || fail "alpd did not start listening"
  fi

  kill -TERM "$PID"
  # A daemon that ignores SIGTERM is killed after 20 s and fails the test.
  for _ in $(seq 1 200); do
    kill -0 "$PID" 2> /dev/null || break
    sleep 0.1
  done
  kill -0 "$PID" 2> /dev/null && fail "alpd still running 20 s after SIGTERM"
  wait "$PID"
  RC=$?
  PID=
  [ "$RC" -eq 0 ] || fail "alpd exited $RC after SIGTERM ($MODE)"
  [ -s "$IMAGE" ] || fail "no cache image at $IMAGE ($MODE)"
}

case $MODE in
announced) stop_once ;;
early) for _ in $(seq 1 20); do stop_once; done ;;
*) fail "unknown mode '$MODE'" ;;
esac

rm -f "$SOCK" "$IMAGE" "$LOG"
echo "alpd_sigterm: PASS"
