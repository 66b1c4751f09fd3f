# dag-smoke pipeline: run a traced fig13 sweep, then drive the trace
# toolbox over the binary spill —
#   * --summary must report zero truncated runtime/phase spans on a clean
#     run (every phase BEGIN got its END), and
#   * --dag must rebuild a phase DAG from the runtime/phase spans and
#     report a positive critical-path length.
# Invoked by ctest (label sweep-smoke) as
#   cmake -DSWEEP_CLI=... -DTRACE_CLI=... -DWORK_DIR=... -P this_file
foreach(var SWEEP_CLI TRACE_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "dag_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{UNIMEM_BENCH_SMOKE} 1)

function(run_cli out_var)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dag_smoke: '${ARGN}' exited ${rc}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Traced run (the trace carries runtime/phase spans for the DAG rebuild).
run_cli(sweep_out "${SWEEP_CLI}" --spec fig13 --jobs 1 --quiet
        --trace "${WORK_DIR}/run.trace" --jsonl "${WORK_DIR}/run.jsonl")

# --summary: table renders, and a clean run has no torn runtime/phase rows.
run_cli(summary_out "${TRACE_CLI}" "${WORK_DIR}/run.trace" --summary)
if(NOT summary_out MATCHES "truncated")
  message(FATAL_ERROR "dag_smoke: --summary lacks the truncated column")
endif()
if(NOT summary_out MATCHES ", 0 truncated spans")
  message(FATAL_ERROR
          "dag_smoke: --summary reports torn spans on a clean run:\n"
          "${summary_out}")
endif()

# --dag: the critical-path report rebuilds from the same spill.
run_cli(dag_out "${TRACE_CLI}" "${WORK_DIR}/run.trace" --dag)
if(NOT dag_out MATCHES "critical path ")
  message(FATAL_ERROR
          "dag_smoke: --dag did not print a critical-path report:\n"
          "${dag_out}")
endif()
if(dag_out MATCHES "critical path 0\\.000000s")
  message(FATAL_ERROR
          "dag_smoke: --dag reports a zero critical path — phase spans "
          "missing from the trace?\n${dag_out}")
endif()

message(STATUS "dag_smoke: sweep + --summary + --dag pipeline ok")
