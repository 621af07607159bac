# Drives corelocate_tool over one map database: two machines mapped into
# it list, show and verify; a truncated copy makes `map` exit 1 and
# stays byte for byte as it was, instead of being replaced by a fresh
# database.
#   cmake -DTOOL=<exe> -DWORK_DIR=<dir> -P corelocate_tool_db_roundtrip.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(db "${WORK_DIR}/maps.rio")

# Runs the tool with ARGN and fails unless it exits with `want`; the
# combined output lands in `out`.
function(run_tool want out)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE log
                  ERROR_VARIABLE log)
  if(NOT result STREQUAL "${want}")
    message(FATAL_ERROR "corelocate_tool ${ARGN}: expected exit ${want}, got ${result}:\n${log}")
  endif()
  set(${out} "${log}" PARENT_SCOPE)
endfunction()

run_tool(0 log map --db "${db}" --seed 1)
run_tool(0 log map --db "${db}" --seed 2)
run_tool(0 listing list --db "${db}")
string(REGEX MATCHALL "0x[0-9a-f]+  " machines "${listing}")
list(LENGTH machines count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR "list printed ${count} machines, expected 2:\n${listing}")
endif()
list(GET machines 0 first)
string(STRIP "${first}" first)
run_tool(0 log show --db "${db}" --ppin "${first}")
run_tool(0 log verify --db "${db}" --seed 1)

# A damaged database is refused and left alone.
file(SIZE "${db}" size)
math(EXPR cut "${size} - 3")
set(damaged "${WORK_DIR}/damaged.rio")
execute_process(COMMAND head -c ${cut} "${db}" OUTPUT_FILE "${damaged}"
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "could not write a truncated copy of ${db}")
endif()
file(SHA256 "${damaged}" before)
run_tool(1 log map --db "${damaged}" --seed 3)
file(SHA256 "${damaged}" after)
if(NOT before STREQUAL after)
  message(FATAL_ERROR "map rewrote the damaged database ${damaged}:\n${log}")
endif()
