# Runs a bench binary and fails unless it exits 0 and its output contains a
# given line, so a per-figure smoke test catches a bench that stops printing
# that figure's table.
#
#   cmake -DBIN=<bench> -DEXPECT=<literal text> -P check_bench_prints.cmake
execute_process(COMMAND "${BIN}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}\n${err}")
endif()
string(FIND "${out}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${BIN} did not print \"${EXPECT}\"")
endif()
