# ctest driver that checks a program's exit status as well as its
# output, which add_test's PASS_REGULAR_EXPRESSION alone cannot:
#
#   cmake -DCMD=<program> -DCODE=<status> -DOUTPUT=<regex> -P ExpectExit.cmake
#
# Fails unless CMD exits with CODE and its merged stdout/stderr match
# OUTPUT.  A signal death reads as a message, not a number, so it fails.
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL CODE)
  message(FATAL_ERROR "${CMD} exited '${rc}', expected ${CODE}:\n${out}")
endif()
if(NOT out MATCHES "${OUTPUT}")
  message(FATAL_ERROR "${CMD} output does not match '${OUTPUT}':\n${out}")
endif()
