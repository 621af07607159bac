# Pre-warms corelocated from a fleet survey's solution cache: the file
# fleet_survey writes must load into the daemon on the same engine.
#   cmake -DFLEET_SURVEY=<exe> -DCORELOCATED=<exe> -DWORK_DIR=<dir>
#         -P fleet_prewarm_daemon.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(cache "${WORK_DIR}/solutions.rio")

execute_process(COMMAND "${FLEET_SURVEY}" --model 8124M --instances 4
                        --solution-cache-file "${cache}"
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE log)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "fleet_survey: exit ${result}:\n${log}")
endif()

file(WRITE "${WORK_DIR}/requests.txt" "mapping model=8124M seed=1\n")
execute_process(COMMAND "${CORELOCATED}" --engine decomposed
                        --solution-cache-file "${cache}"
                        --requests "${WORK_DIR}/requests.txt"
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE log)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "corelocated: exit ${result}:\n${log}")
endif()
string(REGEX MATCH "warmed ([0-9]+) solution-cache entries" _ "${log}")
if(NOT CMAKE_MATCH_1 GREATER 0)
  message(FATAL_ERROR "corelocated warmed '${CMAKE_MATCH_1}' entries:\n${log}")
endif()
