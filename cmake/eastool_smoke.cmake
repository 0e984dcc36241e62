# eastool smoke test, run by ctest (see the tests section of the root
# CMakeLists): one scenario end to end with both CSV outputs parsed
# non-empty, the request-file round trip (--print-request output must rerun
# to a byte-identical summary), per-run sweep outputs, batch mode, plus the
# CLI rejection paths (unknown flags, bad topology, unknown policy, unknown
# scenario) exiting non-zero.
#
# Variables: EASTOOL (path to the binary), OUT_DIR (writable scratch dir).

function(run_expect_failure description)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(result EQUAL 0)
    message(FATAL_ERROR "${description}: expected a non-zero exit, got success")
  endif()
  if(stderr STREQUAL "")
    message(FATAL_ERROR "${description}: rejected silently (no stderr diagnostic)")
  endif()
endfunction()

set(trace_csv ${OUT_DIR}/eastool_smoke_trace.csv)
set(summary_csv ${OUT_DIR}/eastool_smoke_summary.csv)
file(REMOVE ${trace_csv} ${summary_csv})

# --- happy path: one scenario through the parallel runner ---------------------
execute_process(
  COMMAND ${EASTOOL} --scenario phase-shift --duration-s 20
          --trace-csv ${trace_csv} --summary-csv ${summary_csv}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --scenario phase-shift failed (${result}):\n${stdout}${stderr}")
endif()

file(STRINGS ${trace_csv} trace_lines)
list(LENGTH trace_lines trace_length)
if(trace_length LESS 2)
  message(FATAL_ERROR "trace CSV has ${trace_length} line(s); want a header plus data rows")
endif()
list(GET trace_lines 0 trace_header)
if(NOT trace_header MATCHES "^tick,cpu0")
  message(FATAL_ERROR "trace CSV header looks wrong: ${trace_header}")
endif()
list(GET trace_lines 1 trace_row)
if(NOT trace_row MATCHES "^[0-9]+,[0-9.]+")
  message(FATAL_ERROR "trace CSV first data row looks wrong: ${trace_row}")
endif()

file(STRINGS ${summary_csv} summary_lines)
list(LENGTH summary_lines summary_length)
if(summary_length LESS 5)
  message(FATAL_ERROR "summary CSV has ${summary_length} line(s); want the full summary")
endif()
string(REPLACE ";" "\n" summary_text "${summary_lines}")
foreach(key migrations completions throughput avg_throttled_fraction)
  if(NOT summary_text MATCHES "${key},")
    message(FATAL_ERROR "summary CSV is missing ${key}:\n${summary_text}")
  endif()
endforeach()

# --- governed happy path: the DVFS layer end to end ---------------------------
# thermal-stepdown on the capping scenario must run, report the governor and
# export the frequency columns; --governor none must be accepted and export
# none of them (the pre-DVFS summary format).
set(governed_csv ${OUT_DIR}/eastool_smoke_governed.csv)
file(REMOVE ${governed_csv})
execute_process(
  COMMAND ${EASTOOL} --scenario dvfs-vs-throttle --duration-s 20
          --summary-csv ${governed_csv}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --scenario dvfs-vs-throttle failed (${result}):\n${stdout}${stderr}")
endif()
if(NOT stdout MATCHES "governor:[ ]+thermal-stepdown")
  message(FATAL_ERROR "governed run does not report its governor:\n${stdout}")
endif()
file(READ ${governed_csv} governed_text)
foreach(key avg_frequency_cpu0 pstate_residency_cpu0_p0)
  if(NOT governed_text MATCHES "${key},")
    message(FATAL_ERROR "governed summary CSV is missing ${key}:\n${governed_text}")
  endif()
endforeach()

execute_process(
  COMMAND ${EASTOOL} --governor none --workload mixed:2 --duration-s 5
          --summary-csv ${governed_csv}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --governor none failed (${result}):\n${stdout}${stderr}")
endif()
file(READ ${governed_csv} ungoverned_text)
if(ungoverned_text MATCHES "avg_frequency")
  message(FATAL_ERROR "--governor none must not emit DVFS columns:\n${ungoverned_text}")
endif()

# --- --list-scenarios shows the catalogue ------------------------------------
execute_process(COMMAND ${EASTOOL} --list-scenarios RESULT_VARIABLE result
                OUTPUT_VARIABLE listing ERROR_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --list-scenarios failed (${result})")
endif()
foreach(name paper-mixed paper-homogeneous paper-hot-task short-tasks phase-shift
        poisson-open-loop server-consolidation trace-replay dvfs-vs-throttle
        governor-comparison)
  if(NOT listing MATCHES "${name}")
    message(FATAL_ERROR "--list-scenarios is missing ${name}:\n${listing}")
  endif()
endforeach()

# --- --list-governors shows the registry --------------------------------------
execute_process(COMMAND ${EASTOOL} --list-governors RESULT_VARIABLE result
                OUTPUT_VARIABLE governors ERROR_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "eastool --list-governors failed (${result})")
endif()
foreach(name none thermal-stepdown ondemand)
  if(NOT governors MATCHES "${name}")
    message(FATAL_ERROR "--list-governors is missing ${name}:\n${governors}")
  endif()
endforeach()

# --- request-file round trip --------------------------------------------------
# The canonical request file for a flag invocation must rerun to the exact
# summary bytes the flags produce - a request file fully reproduces a run.
set(flags_csv ${OUT_DIR}/eastool_smoke_flags.csv)
set(request_csv ${OUT_DIR}/eastool_smoke_request.csv)
set(request_file ${OUT_DIR}/eastool_smoke.req)
file(REMOVE ${flags_csv} ${request_csv} ${request_file})
execute_process(
  COMMAND ${EASTOOL} --topology 2:4:1 --policy eas --workload mixed:2
          --duration-s 8 --seed 5 --summary-csv ${flags_csv}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "flag-driven run failed (${result}): ${stderr}")
endif()
execute_process(
  COMMAND ${EASTOOL} --topology 2:4:1 --policy eas --workload mixed:2
          --duration-s 8 --seed 5 --print-request
  RESULT_VARIABLE result OUTPUT_FILE ${request_file} ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--print-request failed (${result}): ${stderr}")
endif()
execute_process(
  COMMAND ${EASTOOL} --request ${request_file} --summary-csv ${request_csv}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--request rerun failed (${result}): ${stderr}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${flags_csv} ${request_csv}
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--request run is not byte-identical to the flag-driven run")
endif()

# --- per-run sweep outputs ----------------------------------------------------
# --runs N must keep every run: one summary row per run, per-run trace files
# (run 0 at FILE, run K at FILE.runK).
set(sweep_summary ${OUT_DIR}/eastool_smoke_sweep_summary.csv)
set(sweep_trace ${OUT_DIR}/eastool_smoke_sweep_trace.csv)
file(REMOVE ${sweep_summary} ${sweep_trace} ${sweep_trace}.run1)
execute_process(
  COMMAND ${EASTOOL} --scenario phase-shift --duration-s 10 --runs 2
          --summary-csv ${sweep_summary} --trace-csv ${sweep_trace}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--runs 2 sweep failed (${result}): ${stderr}")
endif()
file(STRINGS ${sweep_summary} sweep_lines)
list(LENGTH sweep_lines sweep_length)
if(NOT sweep_length EQUAL 3)
  message(FATAL_ERROR "sweep summary has ${sweep_length} line(s); want header + 2 run rows")
endif()
list(GET sweep_lines 0 sweep_header)
if(NOT sweep_header MATCHES "^run,name,seed,migrations,")
  message(FATAL_ERROR "sweep summary header looks wrong: ${sweep_header}")
endif()
list(GET sweep_lines 2 sweep_row)
if(NOT sweep_row MATCHES "^1,phase-shift/seed43,43,")
  message(FATAL_ERROR "sweep summary run-1 row looks wrong: ${sweep_row}")
endif()
foreach(trace_file ${sweep_trace} ${sweep_trace}.run1)
  if(NOT EXISTS ${trace_file})
    message(FATAL_ERROR "sweep trace file ${trace_file} was not written")
  endif()
endforeach()

# --- batch mode ---------------------------------------------------------------
set(batch_file ${OUT_DIR}/eastool_smoke_batch.req)
set(batch_jsonl ${OUT_DIR}/eastool_smoke_batch.jsonl)
file(WRITE ${batch_file}
     "# two requests, one per line\n"
     "scenario = paper-mixed; duration-s = 5\n"
     "scenario = paper-hot-task; duration-s = 5; seed = 9\n")
file(REMOVE ${batch_jsonl})
execute_process(
  COMMAND ${EASTOOL} --batch ${batch_file} --jsonl ${batch_jsonl}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--batch failed (${result}): ${stderr}")
endif()
file(STRINGS ${batch_jsonl} batch_lines)
list(LENGTH batch_lines batch_length)
if(NOT batch_length EQUAL 2)
  message(FATAL_ERROR "batch JSONL has ${batch_length} line(s); want one per request")
endif()
list(GET batch_lines 1 batch_row)
if(NOT batch_row MATCHES "\"request\": \"name = paper-hot-task; scenario = paper-hot-task")
  message(FATAL_ERROR "batch JSONL row does not embed its request: ${batch_row}")
endif()

# --batch --print-request emits the canonical batch file (one request per
# line) and that file must replay through --batch.
set(batch_canon ${OUT_DIR}/eastool_smoke_batch_canon.req)
file(REMOVE ${batch_canon})
execute_process(
  COMMAND ${EASTOOL} --batch ${batch_file} --print-request
  RESULT_VARIABLE result OUTPUT_FILE ${batch_canon} ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--batch --print-request failed (${result}): ${stderr}")
endif()
execute_process(
  COMMAND ${EASTOOL} --batch ${batch_canon} --jsonl ${batch_jsonl}
  RESULT_VARIABLE result ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "canonical batch file did not replay (${result}): ${stderr}")
endif()
file(STRINGS ${batch_jsonl} batch_lines)
list(LENGTH batch_lines batch_length)
if(NOT batch_length EQUAL 2)
  message(FATAL_ERROR "canonical batch replay wrote ${batch_length} record(s); want 2")
endif()

# --- rejection paths ----------------------------------------------------------
run_expect_failure("unknown flag" ${EASTOOL} --polcy eas --duration-s 1)
run_expect_failure("request flag with --batch"
                   ${EASTOOL} --batch ${batch_file} --seed 3)
run_expect_failure("--request with --batch"
                   ${EASTOOL} --batch ${batch_file} --request ${request_file})
run_expect_failure("missing request file" ${EASTOOL} --request ${OUT_DIR}/no_such.req)
run_expect_failure("bad seed value" ${EASTOOL} --seed 4z2 --duration-s 1)
run_expect_failure("bad topology" ${EASTOOL} --topology junk:0:x --duration-s 1)
run_expect_failure("zero-CPU topology" ${EASTOOL} --topology 1:0:1 --duration-s 1)
run_expect_failure("unknown policy" ${EASTOOL} --policy no_such_policy --duration-s 1)
run_expect_failure("unknown scenario" ${EASTOOL} --scenario no-such-scenario --duration-s 1)
run_expect_failure("bad workload" ${EASTOOL} --workload bogus:3 --duration-s 1)
run_expect_failure("unknown governor" ${EASTOOL} --governor no-such-governor --duration-s 1)
run_expect_failure("unknown governor over scenario"
                   ${EASTOOL} --scenario paper-mixed --governor bogus --duration-s 1)

# The engine has a single tick pipeline, so there is no intra-run worker
# flag: --intra-threads is rejected like any unknown flag.
execute_process(COMMAND ${EASTOOL} --intra-threads 1 --duration-s 1
                RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE stderr)
if(result EQUAL 0 OR NOT stderr MATCHES "unknown flag --intra-threads")
  message(FATAL_ERROR "--intra-threads: want an unknown-flag rejection, got (${result}):\n${stderr}")
endif()

message(STATUS "eastool smoke test passed")
