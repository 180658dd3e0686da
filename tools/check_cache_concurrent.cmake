# Two gpsched_cli processes share one --cache-dir at the same time,
# over inputs that overlap, then a third (warm) run over the union
# must take every loop from disk, and its per-loop metrics must equal
# those of a run without the cache. The two writers are started as
# one execute_process pipeline, so they run concurrently; neither
# writes to stdout (reports go to files), so the pipe carries nothing.
#
# Variables: CLI (gpsched_cli path), FUZZ (ddg_fuzz path),
#            OUT (scratch directory).

if(NOT DEFINED CLI OR NOT DEFINED FUZZ OR NOT DEFINED OUT)
  message(FATAL_ERROR "need -DCLI=... -DFUZZ=... -DOUT=...")
endif()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(cache_dir "${OUT}/cache")

# Corpora of one seed share prefixes: the 150-loop corpus is the
# first 150 loops of the 250-loop one.
foreach(count 150 250)
  execute_process(
    COMMAND ${FUZZ} gen --seed 11 --count ${count}
            --out ${OUT}/corpus${count}.ddg
    RESULT_VARIABLE status
    ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "ddg_fuzz gen failed (${status}): ${err}")
  endif()
endforeach()

set(common --scheme all --jobs 2 --cache-dir ${cache_dir})
execute_process(
  COMMAND ${CLI} ${common} --json ${OUT}/a.json ${OUT}/corpus150.ddg
  COMMAND ${CLI} ${common} --json ${OUT}/b.json ${OUT}/corpus250.ddg
  RESULTS_VARIABLE statuses
  ERROR_VARIABLE err)
if(NOT statuses STREQUAL "0;0")
  message(FATAL_ERROR "concurrent runs failed (${statuses}): ${err}")
endif()

foreach(run warm reference)
  if(run STREQUAL "warm")
    set(cache_args --cache-dir ${cache_dir})
  else()
    set(cache_args)
  endif()
  execute_process(
    COMMAND ${CLI} --scheme all --jobs 2 ${cache_args} --json -
            ${OUT}/corpus250.ddg
    RESULT_VARIABLE status
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${run} run failed (${status}): ${err}")
  endif()
endforeach()

if(NOT warm_out MATCHES "\"cacheMisses\": 0")
  message(FATAL_ERROR "warm run recompiled:\n${warm_out}")
endif()
if(warm_out MATCHES "\"source\": \"compiled\"")
  message(FATAL_ERROR "warm run compiled a loop:\n${warm_out}")
endif()
if(NOT warm_out MATCHES "\"diskHits\": [1-9]")
  message(FATAL_ERROR "warm run hit nothing:\n${warm_out}")
endif()

# Metric for metric against the cache-less run, without the engine
# block and the per-run wall-clock / provenance fields.
foreach(run warm reference)
  string(REGEX REPLACE "\"engine\": {[^}]*}" "" ${run}_trim
         "${${run}_out}")
  string(REGEX REPLACE "\"schedSeconds\": [^,}\n]*" "" ${run}_trim
         "${${run}_trim}")
  string(REGEX REPLACE "\"compileMs\": [^,}\n]*" "" ${run}_trim
         "${${run}_trim}")
  string(REGEX REPLACE "\"source\": \"[a-z]*\"" "" ${run}_trim
         "${${run}_trim}")
endforeach()
if(NOT warm_trim STREQUAL reference_trim)
  file(WRITE ${OUT}/warm.json "${warm_out}")
  file(WRITE ${OUT}/reference.json "${reference_out}")
  message(FATAL_ERROR "warm report differs from the cache-less one; "
                      "see ${OUT}/warm.json and ${OUT}/reference.json")
endif()

file(REMOVE_RECURSE "${OUT}")
