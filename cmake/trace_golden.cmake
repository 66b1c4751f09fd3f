# Tracing must be a pure observer: a sweep run with --trace produces
# byte-identical CSV/JSONL artifacts to an untraced run (virtual clocks
# are never advanced by emit), both in-process (--jobs) and across forked
# workers (--launcher fork, --shards) where per-task shards are stitched.  Also
# validates the exported Chrome JSON structurally (string(JSON)) and
# round-trips the binary spill through the unimem_trace converter.
# Invoked by ctest (label sweep-smoke) as
#   cmake -DSWEEP_CLI=... -DTRACE_CLI=... -DWORK_DIR=... -DSPEC=fig13
#         -P this_file
foreach(var SWEEP_CLI TRACE_CLI WORK_DIR SPEC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_golden: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{UNIMEM_BENCH_SMOKE} 1)

function(run_cli)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_golden: '${ARGN}' exited ${rc}")
  endif()
endfunction()

function(assert_same base other what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${base}" "${other}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "trace_golden: ${what}: ${other} differs from ${base} — tracing "
            "perturbed the run it was observing")
  endif()
endfunction()

# Baseline: untraced --jobs 1.
run_cli("${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --quiet
        --csv "${WORK_DIR}/base.csv" --jsonl "${WORK_DIR}/base.jsonl")

# In-process (--jobs) with a Chrome JSON trace.
run_cli("${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --quiet
        --trace "${WORK_DIR}/run.json"
        --csv "${WORK_DIR}/traced.csv" --jsonl "${WORK_DIR}/traced.jsonl")
assert_same("${WORK_DIR}/base.csv" "${WORK_DIR}/traced.csv" "jobs csv")
assert_same("${WORK_DIR}/base.jsonl" "${WORK_DIR}/traced.jsonl" "jobs jsonl")

# The exported JSON must parse and carry a non-empty traceEvents array.
file(READ "${WORK_DIR}/run.json" trace_js)
string(JSON n_events LENGTH "${trace_js}" "traceEvents")
if(n_events LESS 1)
  message(FATAL_ERROR "trace_golden: run.json has no traceEvents")
endif()
string(JSON ev0_ph GET "${trace_js}" "traceEvents" 0 "ph")
if(ev0_ph STREQUAL "")
  message(FATAL_ERROR "trace_golden: traceEvents[0] lacks a ph field")
endif()

# Service mode (fork launcher): per-task binary shards stitched into one
# timeline; artifacts still byte-identical.
run_cli("${SWEEP_CLI}" --spec ${SPEC} --launcher fork --workers 2 --quiet
        --trace "${WORK_DIR}/svc.trace"
        --csv "${WORK_DIR}/svc.csv" --jsonl "${WORK_DIR}/svc.jsonl")
assert_same("${WORK_DIR}/base.csv" "${WORK_DIR}/svc.csv" "service csv")
assert_same("${WORK_DIR}/base.jsonl" "${WORK_DIR}/svc.jsonl" "service jsonl")

# Binary spill converts through the unimem_trace CLI and stays valid JSON.
run_cli("${TRACE_CLI}" "${WORK_DIR}/svc.trace" --json "${WORK_DIR}/svc.json"
        --summary)
file(READ "${WORK_DIR}/svc.json" svc_js)
string(JSON n_svc LENGTH "${svc_js}" "traceEvents")
if(n_svc LESS 1)
  message(FATAL_ERROR "trace_golden: converted svc.json has no traceEvents")
endif()

# --shards is the fork launcher too, so it collects per-task trace shards:
# the stitched timeline must carry "task-N/" tracks from the children.
run_cli("${SWEEP_CLI}" --spec ${SPEC} --shards 2 --quiet
        --trace "${WORK_DIR}/shards.trace"
        --csv "${WORK_DIR}/shards.csv" --jsonl "${WORK_DIR}/shards.jsonl")
assert_same("${WORK_DIR}/base.csv" "${WORK_DIR}/shards.csv" "shards csv")
assert_same("${WORK_DIR}/base.jsonl" "${WORK_DIR}/shards.jsonl" "shards jsonl")
run_cli("${TRACE_CLI}" "${WORK_DIR}/shards.trace"
        --json "${WORK_DIR}/shards.json")
file(READ "${WORK_DIR}/shards.json" shards_js)
string(FIND "${shards_js}" "\"task-" task_pos)
if(task_pos EQUAL -1)
  message(FATAL_ERROR
          "trace_golden: --shards trace has no task- tracks (the forked "
          "workers' shards were not stitched)")
endif()

message(STATUS
        "trace_golden: ${SPEC} CSV/JSONL byte-identical traced vs untraced "
        "(--jobs, fork launcher, --shards); Chrome JSON validated "
        "(${n_events} in-process events, ${n_svc} service events)")
