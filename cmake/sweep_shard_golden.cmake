# Golden determinism of the unimem_sweep CLI across execution topologies:
# runs SPEC single-process (--jobs 1), as two --shard I/2 slices stitched
# back with --merge, under the coordinator with each launcher (inproc,
# fork, cmd self-exec), and as a run killed mid-campaign (simulated by
# truncating the --jobs 1 artifact to a prefix plus a torn line) finished
# via --resume — then asserts the CSV/JSONL artifacts of every topology
# are byte-identical to the --jobs 1 ones.  Invoked by ctest (label
# sweep-smoke) as
#   cmake -DSWEEP_CLI=... -DWORK_DIR=... -DSPEC=fig12 -P this_file
foreach(var SWEEP_CLI WORK_DIR SPEC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_shard_golden: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{UNIMEM_BENCH_SMOKE} 1)

function(run_cli)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep_shard_golden: '${ARGN}' exited ${rc}")
  endif()
endfunction()

run_cli("${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --quiet
        --csv "${WORK_DIR}/j1.csv" --jsonl "${WORK_DIR}/j1.jsonl")
run_cli("${SWEEP_CLI}" --spec ${SPEC} --shard 0/2 --quiet
        --jsonl "${WORK_DIR}/s0.jsonl")
run_cli("${SWEEP_CLI}" --spec ${SPEC} --shard 1/2 --quiet
        --jsonl "${WORK_DIR}/s1.jsonl")
run_cli("${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" "${WORK_DIR}/s1.jsonl"
        --quiet --csv "${WORK_DIR}/merged.csv"
        --jsonl "${WORK_DIR}/merged.jsonl")

# Coordinator topologies: every launcher must reproduce the same bytes.
run_cli("${SWEEP_CLI}" --spec ${SPEC} --launcher inproc --workers 2 --quiet
        --csv "${WORK_DIR}/svc_inproc.csv" --jsonl "${WORK_DIR}/svc_inproc.jsonl")
run_cli("${SWEEP_CLI}" --spec ${SPEC} --launcher fork --workers 2 --quiet
        --csv "${WORK_DIR}/svc_fork.csv" --jsonl "${WORK_DIR}/svc_fork.jsonl")
run_cli("${SWEEP_CLI}" --spec ${SPEC} --launcher cmd --workers 2 --quiet
        --csv "${WORK_DIR}/svc_cmd.csv" --jsonl "${WORK_DIR}/svc_cmd.jsonl")

# Kill-and-resume: fabricate a crash artifact — the first three complete
# rows of the --jobs 1 stream plus a torn trailing line — and let --resume
# finish the campaign.  The resumed artifacts must be byte-identical too.
file(STRINGS "${WORK_DIR}/j1.jsonl" j1_lines)
list(SUBLIST j1_lines 0 3 crash_lines)
list(JOIN crash_lines "\n" crash_text)
string(APPEND crash_text "\n{\"index\":3,\"label\":\"torn-mid-wri")
file(WRITE "${WORK_DIR}/resumed.jsonl" "${crash_text}")
run_cli("${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --resume --quiet
        --csv "${WORK_DIR}/resumed.csv" --jsonl "${WORK_DIR}/resumed.jsonl")

foreach(variant merged svc_inproc svc_fork svc_cmd resumed)
  foreach(ext csv jsonl)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${WORK_DIR}/j1.${ext}" "${WORK_DIR}/${variant}.${ext}"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "sweep_shard_golden: ${SPEC} ${variant}.${ext} differs from the "
              "--jobs 1 artifact (determinism across topologies is broken)")
    endif()
  endforeach()
endforeach()
message(STATUS
        "sweep_shard_golden: ${SPEC} CSV/JSONL byte-identical across "
        "--jobs 1, --shard+--merge, the inproc/fork/cmd "
        "launchers, and a killed-then---resume'd run")
