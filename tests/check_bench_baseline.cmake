# Runs a bench binary with --json and fails unless it exits 0 and
# tools/check_bench_baseline.py finds its modeled fields equal to the
# baseline's section, so modeled drift fails ctest.
#
#   cmake -DBIN=<bench> "-DARGS=<space-separated args>" -DPYTHON=<python3>
#         -DCHECK=<check_bench_baseline.py> -DBASELINE=<BENCH_baseline.json>
#         -DSECTION=<section> -DOUT=<fresh.json> -P check_bench_baseline.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} --json "${OUT}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}\n${err}")
endif()
execute_process(COMMAND "${PYTHON}" "${CHECK}" "${BASELINE}" "${SECTION}" "${OUT}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SECTION} drifted from ${BASELINE}")
endif()
