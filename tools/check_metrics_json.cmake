# Runs xdbft_advisor --metrics-json on the emitted TPC-H Q5 plan and checks
# that the report holds this invocation's own numbers: executor.* from its
# validation execution, enumerator.* from its FT-plan search, and no
# process-wide event tail. Invoked by the cli_advisor_metrics_json ctest
# with -DADVISOR=<xdbft_advisor> -DOUT_DIR=<scratch dir>.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${ADVISOR}" --emit-q5 1
  OUTPUT_FILE "${OUT_DIR}/q5.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "xdbft_advisor --emit-q5 1 failed: ${rc}")
endif()
execute_process(
  COMMAND "${ADVISOR}" --plan "${OUT_DIR}/q5.txt"
          --metrics-json "${OUT_DIR}/metrics.json"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "xdbft_advisor --metrics-json failed: ${rc}")
endif()
file(READ "${OUT_DIR}/metrics.json" report)

string(JSON attempts ERROR_VARIABLE err
       GET "${report}" metrics executor.task_attempts)
if(err OR NOT attempts GREATER 0)
  message(FATAL_ERROR "metrics.executor.task_attempts missing or 0: "
                      "'${attempts}' ${err}")
endif()

string(JSON num_metrics LENGTH "${report}" metrics)
set(has_enumerator FALSE)
if(num_metrics GREATER 0)
  math(EXPR last "${num_metrics} - 1")
  foreach(i RANGE ${last})
    string(JSON key MEMBER "${report}" metrics ${i})
    if(key MATCHES "^enumerator\\.")
      set(has_enumerator TRUE)
    endif()
  endforeach()
endif()
if(NOT has_enumerator)
  message(FATAL_ERROR "metrics has no enumerator.* key")
endif()

string(JSON events ERROR_VARIABLE err GET "${report}" events)
if(NOT err)
  message(FATAL_ERROR "report carries an 'events' key")
endif()
