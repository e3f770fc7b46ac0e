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
#   burst_simulation --simulate draws the burst process the model priced:
#                    with --burst-mtbf 1800 --burst-fanout 0.5 the
#                    simulated runtime differs from the burst-free one.
#   trace_out        --trace-out draws the executor's (pid 0) and the
#                    simulator's (pid 1) attempt timelines: one span per
#                    attempt, one failure instant per killed attempt, and
#                    every span on a node lane or the coordinator lane
#                    after them. Parses JSON with string(JSON), so it
#                    needs CMake 3.19.
# Quoted strings in if() are literals, never variable names.
cmake_policy(SET CMP0054 NEW)
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

# Runs advise() with --simulate 10 and the extra arguments and stores its
# "Simulated over" line in `out_var`.
function(simulated out_var)
  advise(out --simulate 10 ${ARGN})
  string(REGEX MATCH "Simulated over[^\n]*" line "${out}")
  if(line STREQUAL "")
    message(FATAL_ERROR "no 'Simulated over' line in:\n${out}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "wal_simulation")
  simulated(wal --scheme wal --wal-write-cost 0.5)
  simulated(lineage --scheme no-mat-lineage)
  if(wal STREQUAL lineage)
    message(FATAL_ERROR "wal simulates like no-mat lineage: ${wal}")
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
elseif(CHECK STREQUAL "burst_simulation")
  simulated(plain)
  simulated(bursty --burst-mtbf 1800 --burst-fanout 0.5)
  if(bursty STREQUAL plain)
    message(FATAL_ERROR "bursts do not reach the simulation: ${bursty}")
  endif()
elseif(CHECK STREQUAL "trace_out")
  advise(out --simulate 2 --trace-out "${OUT_DIR}/t.json"
         --metrics-json "${OUT_DIR}/m.json")
  file(READ "${OUT_DIR}/m.json" report)
  string(JSON injected GET "${report}" metrics executor.failures_injected)
  string(JSON attempts GET "${report}" metrics executor.task_attempts)
  file(READ "${OUT_DIR}/t.json" trace)
  string(JSON num_events LENGTH "${trace}" traceEvents)
  math(EXPR last "${num_events} - 1")
  # Lane n is the coordinator: 3 partitions for the executor (pid 0),
  # --nodes (default 10) for the simulator (pid 1).
  set(lanes_0 3)
  set(lanes_1 10)
  set(seen "")  # "<pid> <category>" per attempt span and failure instant
  foreach(i RANGE ${last})
    foreach(key pid ph cat tid)
      string(JSON ${key} GET "${trace}" traceEvents ${i} ${key})
    endforeach()
    if(ph STREQUAL "M" OR pid GREATER 1)
      continue()
    endif()
    if(tid LESS 0 OR tid GREATER lanes_${pid})
      message(FATAL_ERROR "pid ${pid} event ${i} on lane ${tid}")
    endif()
    if(cat MATCHES "^(attempt|recovery|killed|failure)$")
      list(APPEND seen "${pid} ${cat}")
    endif()
  endforeach()
  # Stores the number of `seen` entries matching `regex` in `out_var`.
  function(count out_var regex)
    list(FILTER seen INCLUDE REGEX "${regex}")
    list(LENGTH seen n)
    set(${out_var} ${n} PARENT_SCOPE)
  endfunction()
  count(failures_0 "^0 failure$")
  count(spans_0 "^0 (attempt|recovery|killed)$")
  count(spans_1 "^1 (attempt|recovery|killed)$")
  count(killed_1 "^1 killed$")
  count(failures_1 "^1 failure$")
  if(NOT (injected EQUAL 2 AND failures_0 EQUAL injected AND
          spans_0 EQUAL attempts AND spans_1 GREATER 0 AND
          killed_1 EQUAL failures_1))
    message(FATAL_ERROR
      "executor: ${injected} failures injected, ${failures_0} failure "
      "instants, ${attempts} task attempts, ${spans_0} attempt spans; "
      "simulator: ${spans_1} attempt spans, ${killed_1} killed spans, "
      "${failures_1} failure instants")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
