#!/usr/bin/env sh
# Regenerates testdata/sim/simresults.golden after an intentional change to
# the simulator's model (see tests/SimulatorGoldenTest.cpp). The golden
# holds, for every checked-in program and each hand-built case, the hex
# bit pattern of every SimResult field and the sim.reorganizations count
# of each run, or the status text of the run's error.
#
# Usage: tests/update_sim_golden.sh [path-to-simulator_golden_test]
set -eu
TEST=${1:-build/tests/simulator_golden_test}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
out="$ROOT/testdata/sim/simresults.golden"
printf '%s\n' \
  "# SimResult bit patterns: <case> <config> seq <cycles>, or" \
  "# <case> <config> p<procs> <the nine SimResult fields> reorgs=<count>." \
  "# Regenerate with tests/update_sim_golden.sh." > "$out"
ALP_UPDATE_SIM_GOLDEN="$out" "$TEST"
echo "wrote $out"
