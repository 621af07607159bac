# Runs COMMAND (a ;-list) and fails unless it exits with EXPECT_EXIT and
# its combined output contains EXPECT_OUTPUT.
#   cmake -DCOMMAND=<prog;args...> -DEXPECT_EXIT=<code>
#         -DEXPECT_OUTPUT=<text> -P expect_exit.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT result STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${result}:\n${output}")
endif()
string(FIND "${output}" "${EXPECT_OUTPUT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "output lacks \"${EXPECT_OUTPUT}\":\n${output}")
endif()
