# Byte-compares the advice output of four deterministic runs with the
# goldens committed under tools/golden/:
#   quickstart.txt          examples/quickstart
#   cluster_advisor.txt     examples/cluster_advisor
#   advisor_q5.txt          xdbft_advisor --plan <--emit-q5 100 output>
#                                         --mtbf 3600 --simulate 10
#   advisor_q5_bursts.txt   the same with --burst-mtbf 1800
#                                         --burst-fanout 0.5 (burst-priced,
#                                         so refetch is charged)
# Every line of the four outputs is fixed by the inputs (the enumeration
# answer is identical at any thread count), so any difference is a change
# in what the advisor recommends, estimates or simulates. Invoked by the
# golden_stdout ctest with -DQUICKSTART=, -DCLUSTER_ADVISOR=, -DADVISOR=
# (the binaries), -DGOLDEN_DIR=<tools/golden> and -DOUT_DIR=<scratch dir>.
# On a mismatch the actual output is left in OUT_DIR next to the path of
# its golden.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
  COMMAND "${ADVISOR}" --emit-q5 100
  OUTPUT_FILE "${OUT_DIR}/q5.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "xdbft_advisor --emit-q5 100 failed: ${rc}")
endif()

function(check_golden name)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_FILE "${OUT_DIR}/${name}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: '${ARGN}' exited with ${rc}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${GOLDEN_DIR}/${name}" "${OUT_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: stdout differs from the golden; compare "
                        "${GOLDEN_DIR}/${name} with ${OUT_DIR}/${name}")
  endif()
endfunction()

check_golden(quickstart.txt "${QUICKSTART}")
check_golden(cluster_advisor.txt "${CLUSTER_ADVISOR}")
check_golden(advisor_q5.txt "${ADVISOR}" --plan "${OUT_DIR}/q5.txt"
             --mtbf 3600 --simulate 10)
check_golden(advisor_q5_bursts.txt "${ADVISOR}" --plan "${OUT_DIR}/q5.txt"
             --mtbf 3600 --burst-mtbf 1800 --burst-fanout 0.5 --simulate 10)
