# expect_cli_error.cmake — runs one command line and passes only when it
# exits with status 1 and prints an `error: ...` line on stderr: a clean
# diagnostic, not an abort (uncaught exception) and not a silent success.
#
#   cmake -DBIN=<program> "-DARGS=<arg> <arg> ..." -P expect_cli_error.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${arg_list}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
          "${BIN} ${ARGS}: expected exit status 1, got '${status}'\n"
          "stderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)error: ")
  message(FATAL_ERROR
          "${BIN} ${ARGS}: expected an 'error:' line on stderr, got:\n${err}")
endif()
