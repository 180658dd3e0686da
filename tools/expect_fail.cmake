# Runs a command that must fail: nonzero exit status (a clean
# diagnostic exit, not a crash) and a gem5-style file:line diagnostic
# on stderr. Used by the front ends' error-path CTest entries.
#
# Variables:
#   CMD      semicolon-separated command line to run
#   PATTERN  extra regex stderr must match (the diagnostic's content)
#   STATUS   exact exit status wanted instead of the file:line check
#            (2 for the usage errors of src/support/flags.hh)

if(NOT DEFINED CMD)
  message(FATAL_ERROR "expect_fail.cmake needs -DCMD=...")
endif()

execute_process(
  COMMAND ${CMD}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)

if(status STREQUAL "0")
  message(FATAL_ERROR "command unexpectedly succeeded: ${CMD}")
endif()

if(DEFINED STATUS AND NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR
    "want exit status ${STATUS}, got '${status}': ${CMD}\nstderr: ${err}")
endif()

# Crashes surface as signal names ("Segmentation fault", "Aborted")
# in RESULT_VARIABLE instead of a small integer exit code.
if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR
    "command died abnormally (${status}) instead of exiting with a "
    "diagnostic: ${CMD}\nstderr: ${err}")
endif()

# Every fatal diagnostic ends with "  at <file>:<line>".
if(NOT DEFINED STATUS AND NOT err MATCHES "at .*\\.(cc|hh):[0-9]+")
  message(FATAL_ERROR
    "stderr lacks a file:line diagnostic\nstderr: ${err}")
endif()

if(DEFINED PATTERN AND NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR
    "stderr does not match '${PATTERN}'\nstderr: ${err}")
endif()
