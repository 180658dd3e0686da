# gpsched_cli streams its loops through the engine's worker pool,
# so its output must not depend on --jobs: for a healthy fuzz corpus
# and for the mixed good/bad fixture under --keep-going, the report at
# --jobs 4 equals the one at --jobs 1, and both runs exit with the
# same status and print the same stderr. The fields that measure time
# or depend on the pool are dropped before comparing: compileMs,
# schedSeconds, source, phases, cacheDir, and the engine block's
# `jobs` (the requested width itself). Without --keep-going the mixed
# fixture ends at its first failing row with the same fatal
# diagnostic at either width (the truncated report is not compared).
# Finally the mixed fixture piped through /dev/stdin under
# --scheme all, which reads the pipe three times, must report exactly
# what the file path does (the rows' `file` aside).
#
# Variables:
#   CLI     path to the gpsched_cli binary
#   FUZZ    path to the ddg_fuzz binary (generates the corpus)
#   MIXED   the mixed good/bad fixture (mixed_loops.ddg)
#   PYTHON  python3 interpreter for the JSON comparison
#   OUT     scratch path prefix for the corpus and the reports

foreach(var CLI FUZZ MIXED PYTHON OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_sim_jobs.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${FUZZ} gen --seed 1 --count 200 --out ${OUT}.corpus.ddg
  RESULT_VARIABLE status
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "ddg_fuzz gen failed (${status}): ${err}")
endif()

# Runs one input at --jobs 1 and --jobs 4; both must exit with
# expected_status and print the same stderr, which is left in
# ${name}_stderr.
function(run_jobs name expected_status)
  foreach(jobs 1 4)
    execute_process(
      COMMAND ${CLI} --simulate --jobs ${jobs} ${ARGN}
              --json ${OUT}.${name}.j${jobs}.json
      RESULT_VARIABLE status_${jobs}
      ERROR_VARIABLE err_${jobs}
    )
  endforeach()
  if(NOT status_1 STREQUAL "${expected_status}")
    message(FATAL_ERROR
      "${name}: --jobs 1 must exit ${expected_status}, got "
      "'${status_1}'\nstderr: ${err_1}")
  endif()
  if(NOT status_1 STREQUAL status_4)
    message(FATAL_ERROR
      "${name}: exit status differs: --jobs 1 '${status_1}', "
      "--jobs 4 '${status_4}'")
  endif()
  if(NOT err_1 STREQUAL err_4)
    message(FATAL_ERROR
      "${name}: stderr differs\n--jobs 1:\n${err_1}\n"
      "--jobs 4:\n${err_4}")
  endif()
  set(${name}_stderr "${err_1}" PARENT_SCOPE)
endfunction()

# Compares two reports after dropping the DROP fields (plus `file`
# when DROP_FILE is set) and the engine block's `jobs`.
function(compare_reports name first second)
  execute_process(
    COMMAND ${PYTHON} -c "
import json, sys
DROP = {'compileMs', 'schedSeconds', 'source', 'phases', 'cacheDir'}
if sys.argv[3] == 'drop-file':
    DROP.add('file')
def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in DROP}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value
serial, pooled = (strip(json.load(open(path))) for path in sys.argv[1:3])
for report in (serial, pooled):
    del report['engine']['jobs']
assert serial['loops'], 'no loop rows'
assert any('simOk' in row for row in serial['loops']), 'nothing simulated'
for index, (a, b) in enumerate(zip(serial['loops'], pooled['loops'])):
    assert a == b, 'row %d differs:\\n%r\\n%r' % (index, a, b)
assert serial == pooled, 'reports differ outside the loop rows'
print('identical:', len(serial['loops']), 'rows')
" ${first} ${second} "${DROP_FILE}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${name}: reports differ:\n${err}")
  endif()
  message(STATUS "${name}: ${out}")
endfunction()

function(compare_jobs name expected_status)
  run_jobs(${name} ${expected_status} ${ARGN})
  compare_reports(${name} ${OUT}.${name}.j1.json ${OUT}.${name}.j4.json)
endfunction()

compare_jobs(corpus 0 --scheme all ${OUT}.corpus.ddg)
compare_jobs(mixed 1 --keep-going ${MIXED})

# Without --keep-going: broken_parse, the first failing row, ends the
# run (good_one before it has already compiled).
run_jobs(mixed_fatal 1 ${MIXED})
if(NOT mixed_fatal_stderr MATCHES
   "^fatal: edge references unknown node: 'edge 0 7 1 0'\n  at [^\n]*textio\\.cc:[0-9]+\n$")
  message(FATAL_ERROR
    "mixed_fatal: want broken_parse's parse diagnostic alone, got:\n"
    "${mixed_fatal_stderr}")
endif()

# A pipe read once per scheme reports what the file does.
execute_process(
  COMMAND ${PYTHON} -c
          "import shutil, sys; shutil.copyfileobj(open(sys.argv[1]), sys.stdout)"
          ${MIXED}
  COMMAND ${CLI} --simulate --jobs 4 --scheme all --keep-going
          --json ${OUT}.piped.json /dev/stdin
  RESULT_VARIABLE piped_status
  ERROR_VARIABLE piped_err
)
execute_process(
  COMMAND ${CLI} --simulate --jobs 4 --scheme all --keep-going
          --json ${OUT}.file.json ${MIXED}
  RESULT_VARIABLE file_status
  ERROR_VARIABLE file_err
)
if(NOT piped_status STREQUAL "1" OR NOT file_status STREQUAL "1")
  message(FATAL_ERROR
    "piped: want exit 1 from both runs, got pipe '${piped_status}', "
    "file '${file_status}'\n${piped_err}${file_err}")
endif()
string(REPLACE "/dev/stdin" "${MIXED}" piped_err "${piped_err}")
if(NOT piped_err STREQUAL file_err)
  message(FATAL_ERROR
    "piped: stderr differs\npipe:\n${piped_err}\nfile:\n${file_err}")
endif()
set(DROP_FILE drop-file)
compare_reports(piped ${OUT}.piped.json ${OUT}.file.json)
