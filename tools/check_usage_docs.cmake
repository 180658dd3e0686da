# Keeps the flag tables and the docs from drifting: runs each front
# end's generated usage text (`--help`) and fails if any flag it
# prints is missing from README.md.
#
# Variables:
#   TOOLS   semicolon-separated front-end binaries
#   README  path to README.md

file(READ ${README} readme)
foreach(tool IN LISTS TOOLS)
  execute_process(COMMAND ${tool} --help
                  RESULT_VARIABLE status OUTPUT_VARIABLE usage)
  string(REGEX MATCHALL "--[a-z][a-z0-9-]*" flags "${usage}")
  if(NOT status STREQUAL "0" OR NOT flags)
    message(FATAL_ERROR "${tool} --help failed ('${status}'):\n${usage}")
  endif()
  list(REMOVE_DUPLICATES flags)
  foreach(flag IN LISTS flags)
    if(NOT readme MATCHES "${flag}([^a-z0-9-]|$)")
      list(APPEND missing "${tool} ${flag}")
    endif()
  endforeach()
endforeach()
if(missing)
  string(REPLACE ";" "\n  " missing "${missing}")
  message(FATAL_ERROR "flags missing from README.md:\n  ${missing}")
endif()
