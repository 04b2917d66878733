# Runs alpc twice on the same input with different --jobs values and
# requires byte-identical stdout and equal exit codes: the parallel
# analysis driver must not change the compiler's answer.
#
# Variables: ALPC (binary), INPUT (.alp file), JOBS_A, JOBS_B, and
# optionally EXTRA (semicolon list of extra alpc flags, e.g. an unbounded
# --failpoints spec — injected faults must degrade identically too),
# FLAGS (semicolon list replacing the default "--spmd;--deps" mode, e.g.
# "--lint" to pin the diagnostic stream itself) and EXPECT_EXIT (the exit
# code both runs must give).

if(NOT DEFINED JOBS_A)
  set(JOBS_A 1)
endif()
if(NOT DEFINED JOBS_B)
  set(JOBS_B 8)
endif()
if(NOT DEFINED EXTRA)
  set(EXTRA "")
endif()
if(NOT DEFINED FLAGS)
  set(FLAGS "--spmd;--deps")
endif()

execute_process(
  COMMAND ${ALPC} ${INPUT} ${FLAGS} --jobs ${JOBS_A} ${EXTRA}
  OUTPUT_VARIABLE OUT_A
  ERROR_VARIABLE ERR_A
  RESULT_VARIABLE RC_A)
execute_process(
  COMMAND ${ALPC} ${INPUT} ${FLAGS} --jobs ${JOBS_B} ${EXTRA}
  OUTPUT_VARIABLE OUT_B
  ERROR_VARIABLE ERR_B
  RESULT_VARIABLE RC_B)

if(NOT RC_A EQUAL RC_B)
  message(FATAL_ERROR
    "exit codes differ: --jobs ${JOBS_A} -> ${RC_A}, "
    "--jobs ${JOBS_B} -> ${RC_B}")
endif()
if(DEFINED EXPECT_EXIT AND NOT RC_A EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit code ${RC_A}, expected ${EXPECT_EXIT}")
endif()
if(NOT OUT_A STREQUAL OUT_B)
  message(FATAL_ERROR
    "stdout differs between --jobs ${JOBS_A} and --jobs ${JOBS_B} on "
    "${INPUT}:\n--- jobs=${JOBS_A} ---\n${OUT_A}\n"
    "--- jobs=${JOBS_B} ---\n${OUT_B}")
endif()
if(NOT ERR_A STREQUAL ERR_B)
  message(FATAL_ERROR
    "stderr differs between --jobs ${JOBS_A} and --jobs ${JOBS_B} on "
    "${INPUT}:\n--- jobs=${JOBS_A} ---\n${ERR_A}\n"
    "--- jobs=${JOBS_B} ---\n${ERR_B}")
endif()
message(STATUS "output byte-identical for --jobs ${JOBS_A} and ${JOBS_B}")
