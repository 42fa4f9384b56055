# Runs one deepmap_cli command line and passes only when it is rejected as a
# usage error: exit status 2 and the usage text on stderr.
#
#   cmake -DCLI=<deepmap_cli> "-DARGS=<arg;arg;...>" -P expect_usage_error.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: deepmap_cli")
  message(FATAL_ERROR "expected the usage text on stderr, got:\n${err}")
endif()
