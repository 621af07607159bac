# Runs COMMAND (a ;-list) in WORKING_DIR and fails unless it exits with
# EXPECT_EXIT and its standard output equals the file GOLDEN byte for byte.
#   cmake -DCOMMAND=<prog;args...> -DWORKING_DIR=<dir> -DEXPECT_EXIT=<code>
#         -DGOLDEN=<file> -P expect_golden.cmake
execute_process(COMMAND ${COMMAND}
                WORKING_DIRECTORY "${WORKING_DIR}"
                RESULT_VARIABLE result
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors)
if(NOT result STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${result}:\n${output}${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT output STREQUAL expected)
  message(FATAL_ERROR "output differs from ${GOLDEN}:\n${output}")
endif()
