#!/usr/bin/env bash
# SIGTERM is alpd's normal stop: the daemon must drain, exit 0, and leave
# its --cache-file image behind so that a restart starts warm.
#
#   alpd_sigterm.sh <alpd> <workdir>
set -u

ALPD=$1
WORK=$2
SOCK=$WORK/alpd_sigterm.$$.sock
IMAGE=$WORK/alpd_sigterm.$$.cache
LOG=$WORK/alpd_sigterm.$$.log

fail() {
  echo "alpd_sigterm: FAIL: $1" >&2
  [ -n "${PID:-}" ] && kill -KILL "$PID" 2> /dev/null
  rm -f "$SOCK" "$IMAGE" "$LOG"
  exit 1
}

rm -f "$SOCK" "$IMAGE" "$LOG"
"$ALPD" --socket="$SOCK" --threads=1 --cache-file="$IMAGE" > "$LOG" &
PID=$!
# alpd announces itself only after its SIGTERM handler is installed; a
# signal sent before that would take the default action instead.
for _ in $(seq 1 100); do
  grep -q "listening on" "$LOG" 2> /dev/null && break
  sleep 0.1
done
grep -q "listening on" "$LOG" || fail "alpd did not start listening"

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
[ "$RC" -eq 0 ] || fail "alpd exited $RC after SIGTERM"
[ -s "$IMAGE" ] || fail "no cache image at $IMAGE"

rm -f "$SOCK" "$IMAGE" "$LOG"
echo "alpd_sigterm: PASS"
