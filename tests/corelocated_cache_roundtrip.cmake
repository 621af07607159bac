# Runs corelocated twice over one request file with a persisted solution
# cache and the default engine. The first run must save entries, the
# second must take solution-cache hits from them, and both must write
# the same response log.
#   cmake -DCORELOCATED=<exe> -DREQUESTS=<file> -DWORK_DIR=<dir>
#         -P corelocated_cache_roundtrip.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_daemon run)
  execute_process(COMMAND "${CORELOCATED}" --requests "${REQUESTS}"
                          --solution-cache-file "${WORK_DIR}/solutions.rio"
                          --report=json --report-file "${WORK_DIR}/report-${run}.json"
                  RESULT_VARIABLE result
                  OUTPUT_QUIET
                  ERROR_VARIABLE log)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "run ${run}: exit ${result}:\n${log}")
  endif()
  string(REGEX MATCH "saved ([0-9]+) solution-cache entries" _ "${log}")
  set(saved_${run} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  string(REGEX MATCH "log fnv1a=([0-9a-f]+)" _ "${log}")
  set(fnv_${run} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  file(READ "${WORK_DIR}/report-${run}.json" report)
  string(REGEX MATCH "\"serve.solution_cache.hits\": ([0-9]+)" _ "${report}")
  set(hits_${run} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  set(log_${run} "${log}" PARENT_SCOPE)
endfunction()

run_daemon(1)
run_daemon(2)
if(NOT saved_1 GREATER 0)
  message(FATAL_ERROR "first run saved '${saved_1}' entries:\n${log_1}")
endif()
if(fnv_1 STREQUAL "" OR NOT fnv_1 STREQUAL fnv_2)
  message(FATAL_ERROR "response logs differ: '${fnv_1}' vs '${fnv_2}':\n${log_1}\n${log_2}")
endif()
if(NOT hits_2 GREATER 0)
  message(FATAL_ERROR "second run took '${hits_2}' solution-cache hits:\n${log_2}")
endif()
