# CLI contract tests for the sweep service layer: strict option parsing
# (--profiler/--jobs/--indices reject junk and overflow instead of
# silently truncating, and the deleted service flags are unknown), the
# --merge coverage/gap heuristics, duplicate shard rejection,
# torn-last-line --resume, and a fork campaign whose summary JSON carries
# the forked tasks' metrics.
# Invoked by ctest (label sweep-service) as
#   cmake -DSWEEP_CLI=... -DWORK_DIR=... -P this_file
foreach(var SWEEP_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_service_cases: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{UNIMEM_BENCH_SMOKE} 1)
set(SPEC fig12)

# Run the CLI expecting a specific exit code; exports last_stdout /
# last_stderr for content checks.
function(cli_expect expected_rc label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: expected exit ${expected_rc}, "
            "got '${rc}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(last_stdout "${stdout}" PARENT_SCOPE)
  set(last_stderr "${stderr}" PARENT_SCOPE)
endfunction()

function(expect_contains text needle label)
  string(FIND "${text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: expected '${needle}' in:\n${text}")
  endif()
endfunction()

function(expect_not_contains text needle label)
  string(FIND "${text}" "${needle}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: did not expect '${needle}' "
            "in:\n${text}")
  endif()
endfunction()

function(expect_same a b label)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: ${a} and ${b} differ")
  endif()
endfunction()

# ---- strict option parsing (satellite: no atoi truncation) -----------------

cli_expect(1 "profiler trailing garbage"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler 16x --points)
expect_contains("${last_stderr}" "--profiler wants" "profiler trailing garbage")
cli_expect(1 "profiler overflow"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler 18446744073709551616 --points)
cli_expect(1 "profiler zero period"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler 0 --points)
cli_expect(0 "profiler exact accepted"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler exact --points)

cli_expect(1 "jobs trailing garbage"
           "${SWEEP_CLI}" --spec ${SPEC} --jobs 4x --points)
expect_contains("${last_stderr}" "--jobs wants" "jobs trailing garbage")
cli_expect(1 "jobs negative" "${SWEEP_CLI}" --spec ${SPEC} --jobs -2 --points)

cli_expect(1 "indices trailing garbage"
           "${SWEEP_CLI}" --spec ${SPEC} --indices 1,2x --points)
cli_expect(1 "indices out of range"
           "${SWEEP_CLI}" --spec ${SPEC} --indices 0,99 --points)
expect_contains("${last_stderr}" "does not contain" "indices out of range")

cli_expect(1 "unknown launcher"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher bogus --points)
cli_expect(1 "launcher excludes shards"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher fork --shard 0/2)
cli_expect(1 "resume needs jsonl" "${SWEEP_CLI}" --spec ${SPEC} --resume)
# Re-dispatch of a dead worker's points is the only re-run; there is no
# backoff to tune, no point retry, no work stealing, no fault injection,
# and `--launcher fork --workers N` is the one spelling of N fork workers.
foreach(flag_value IN ITEMS "--backoff-base;0.001" "--steal" "--retries;1"
        "--inject-fail;0.5" "--attempt-base;1" "--shards;2")
  list(GET flag_value 0 flag)
  cli_expect(1 "${flag} is unknown"
             "${SWEEP_CLI}" --spec ${SPEC} ${flag_value} --points)
  expect_contains("${last_stderr}" "unknown option '${flag}'"
                  "${flag} is unknown")
endforeach()

# ---- merge heuristics ------------------------------------------------------

cli_expect(0 "shard 0" "${SWEEP_CLI}" --spec ${SPEC} --shard 0/2 --quiet
           --jsonl "${WORK_DIR}/s0.jsonl")
cli_expect(0 "shard 1" "${SWEEP_CLI}" --spec ${SPEC} --shard 1/2 --quiet
           --jsonl "${WORK_DIR}/s1.jsonl")

# Overlapping shard inputs are a mistake, not a merge.
cli_expect(1 "duplicate shards rejected"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" "${WORK_DIR}/s0.jsonl"
           --quiet --csv "${WORK_DIR}/dup.csv")

# A lone shard without --spec merges fine (filtered/partial sweeps are
# legitimate) but the index-gap heuristic must flag it on stderr.
cli_expect(0 "gap heuristic warns"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" --quiet
           --csv "${WORK_DIR}/half.csv")
expect_contains("${last_stderr}" "unfilled" "gap heuristic warns")

# With --spec the same gap is a hard coverage error...
cli_expect(1 "spec coverage enforced"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" --spec ${SPEC} --quiet
           --csv "${WORK_DIR}/half2.csv")
expect_contains("${last_stderr}" "do not cover" "spec coverage enforced")

# ...and a complete partition passes both checks silently.
cli_expect(0 "full merge clean"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" "${WORK_DIR}/s1.jsonl"
           --spec ${SPEC} --quiet --csv "${WORK_DIR}/merged.csv")
expect_not_contains("${last_stderr}" "unfilled" "full merge clean")

# ---- torn-last-line resume -------------------------------------------------

cli_expect(0 "reference run" "${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --quiet
           --csv "${WORK_DIR}/j1.csv" --jsonl "${WORK_DIR}/j1.jsonl")

# Fabricate a crash artifact: three complete rows plus a torn tail.
file(STRINGS "${WORK_DIR}/j1.jsonl" j1_lines)
list(SUBLIST j1_lines 0 3 crash_lines)
list(JOIN crash_lines "\n" crash_text)
string(APPEND crash_text "\n{\"index\":3,\"label\":\"torn-mid-wri")
file(WRITE "${WORK_DIR}/resumed.jsonl" "${crash_text}")

cli_expect(0 "torn resume" "${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --resume
           --quiet --csv "${WORK_DIR}/resumed.csv"
           --jsonl "${WORK_DIR}/resumed.jsonl")
expect_contains("${last_stderr}" "torn trailing line" "torn resume")
expect_contains("${last_stdout}" "3 resumed" "torn resume")
expect_same("${WORK_DIR}/j1.csv" "${WORK_DIR}/resumed.csv" "torn resume csv")
expect_same("${WORK_DIR}/j1.jsonl" "${WORK_DIR}/resumed.jsonl"
            "torn resume jsonl")

# ---- fork campaign through the coordinator ---------------------------------

# Two fork workers run one task each; the summary JSON counts the
# campaign and the artifacts stay byte-identical to the --jobs 1 run.
cli_expect(0 "service recovery"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher fork --workers 2 --quiet
           --csv "${WORK_DIR}/svc.csv" --jsonl "${WORK_DIR}/svc.jsonl"
           --summary-json "${WORK_DIR}/svc.json")
file(READ "${WORK_DIR}/svc.json" summary)
expect_contains("${summary}" "\"schema_version\":4" "service recovery summary")
expect_contains("${summary}" "\"failed\":0" "service recovery summary")
expect_contains("${summary}" "\"tasks\":2," "service recovery summary")
expect_contains("${summary}" "\"complete\":true" "service recovery summary")
expect_contains("${summary}" "\"launcher\":\"fork\"" "service recovery summary")
expect_not_contains("${summary}" "\"steal" "service recovery summary")
expect_not_contains("${summary}" "\"retries\"" "service recovery summary")
# The forked tasks' engine counters reach the parent's summary.
expect_contains("${summary}" "\"sweep.points_ok\"" "service recovery summary")
expect_same("${WORK_DIR}/j1.csv" "${WORK_DIR}/svc.csv" "service recovery csv")
expect_same("${WORK_DIR}/j1.jsonl" "${WORK_DIR}/svc.jsonl"
            "service recovery jsonl")

# The 10k-point stress spec is registered and sized as documented.
cli_expect(0 "stress spec listed" "${SWEEP_CLI}" --list)
expect_contains("${last_stdout}" "service_stress" "stress spec listed")
expect_contains("${last_stdout}" "10000" "stress spec listed")

message(STATUS "sweep_service_cases: all CLI service-layer cases passed")
