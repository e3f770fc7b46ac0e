# Checks that xdbft_advisor simulates and reports the discipline it
# priced, on the emitted SF-100 Q5 plan at MTBF 1 h. Invoked by the
# cli_advisor_* ctests with -DADVISOR=<xdbft_advisor>,
# -DOUT_DIR=<scratch dir> and -DCHECK=<name>:
#   wal_simulation   --scheme wal with --wal-write-cost 0.5 simulates a
#                    different runtime than --scheme no-mat-lineage: the
#                    simulator charges the log writes and replays at the
#                    model's discount instead of recomputing.
#   greedy_recovery  --greedy with --wal-write-cost 0.1 reports the
#                    write-ahead lineage recovery mode its estimate was
#                    priced under.
#   search_once      the default invocation (no --scheme, no --greedy)
#                    runs findBestFTPlan once: with --threads 1 its trace
#                    holds exactly one enum.chunk span on the enumeration
#                    pid (2).
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${ADVISOR}" --emit-q5 100
  OUTPUT_FILE "${OUT_DIR}/q5.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "xdbft_advisor --emit-q5 100 failed: ${rc}")
endif()

# Runs the advisor on the Q5 plan with the extra arguments and stores its
# stdout in `out_var`.
function(advise out_var)
  execute_process(
    COMMAND "${ADVISOR}" --plan "${OUT_DIR}/q5.txt" --mtbf 3600 ${ARGN}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "xdbft_advisor ${ARGN} exited with ${rc}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "wal_simulation")
  advise(wal --scheme wal --wal-write-cost 0.5 --simulate 10)
  advise(lineage --scheme no-mat-lineage --simulate 10)
  string(REGEX MATCH "Simulated over[^\n]*" wal_line "${wal}")
  string(REGEX MATCH "Simulated over[^\n]*" lineage_line "${lineage}")
  if(wal_line STREQUAL "")
    message(FATAL_ERROR "no 'Simulated over' line in:\n${wal}")
  endif()
  if(wal_line STREQUAL lineage_line)
    message(FATAL_ERROR "wal simulates like no-mat lineage: ${wal_line}")
  endif()
elseif(CHECK STREQUAL "greedy_recovery")
  advise(greedy --greedy --wal-write-cost 0.1)
  if(NOT greedy MATCHES "recovery: write-ahead lineage")
    message(FATAL_ERROR "greedy answer lost the WAL recovery mode:\n"
                        "${greedy}")
  endif()
elseif(CHECK STREQUAL "search_once")
  advise(out --threads 1 --trace-out "${OUT_DIR}/trace.json")
  # The trace writer puts one event per line.
  file(STRINGS "${OUT_DIR}/trace.json" chunks
       REGEX "\"name\": \"enum\\.chunk\".*\"pid\": 2,")
  list(LENGTH chunks n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "expected one enum.chunk span on pid 2, got ${n}")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
