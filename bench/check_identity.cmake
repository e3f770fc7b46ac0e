# Runs the deterministic benches full-size into a fresh JSON directory and
# requires their rows to equal bench/baselines/ field for field
# (tools/check_bench.py exits 1 on any mismatch). Invoked by the
# bench_smoke_identity ctest with -DPYTHON=... -DSOURCE_DIR=... -DOUT_DIR=...
# -DBENCHES="path/perf_schemes;path/perf_correlated;...".
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(bench IN LISTS BENCHES)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "XDBFT_BENCH_JSON_DIR=${OUT_DIR}"
            "${bench}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed: ${rc}")
  endif()
endforeach()
execute_process(
  COMMAND "${PYTHON}" "${SOURCE_DIR}/tools/check_bench.py"
          --baseline-dir "${SOURCE_DIR}/bench/baselines"
          --current-dir "${OUT_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench rows differ from bench/baselines/")
endif()
