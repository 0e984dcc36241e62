# Cluster smoke test, run by ctest under the "cluster-smoke" label (see the
# tests section of the root CMakeLists): the datacenter-consolidation
# scenario - 512 logical CPUs on the five-level 2:4:8:4:2 tree - at a
# reduced duration, exercising the tick pipeline at cluster scale end to end
# and checking skip-ahead neutrality byte-for-byte on the summary CSV:
# --no-skip-ahead must not change the bytes.
#
# The duration is sized for sanitized Debug builds (ASan/UBSan/TSan legs run
# this label); the TIMEOUT on the ctest registration is the real guard.
#
# Variables: EASTOOL (path to the binary), OUT_DIR (writable scratch dir).

set(scenario datacenter-consolidation)
set(duration 2)

set(base_csv ${OUT_DIR}/cluster_smoke_base.csv)
set(noskip_csv ${OUT_DIR}/cluster_smoke_noskip.csv)
file(REMOVE ${base_csv} ${noskip_csv})

function(run_cluster description out_csv)
  execute_process(
    COMMAND ${EASTOOL} --scenario ${scenario} --duration-s ${duration}
            --summary-csv ${out_csv} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${description} failed (${result}):\n${stdout}${stderr}")
  endif()
  if(NOT EXISTS ${out_csv})
    message(FATAL_ERROR "${description}: summary CSV was not written")
  endif()
endfunction()

run_cluster("cluster run" ${base_csv})
run_cluster("cluster run, skip-ahead off" ${noskip_csv} --no-skip-ahead)

# The summary must be a real run of the 512-CPU machine, not a truncated one.
file(STRINGS ${base_csv} summary_lines)
list(LENGTH summary_lines summary_length)
if(summary_length LESS 5)
  message(FATAL_ERROR "cluster summary has ${summary_length} line(s); want the full summary")
endif()
string(REPLACE ";" "\n" summary_text "${summary_lines}")
foreach(key migrations completions throughput)
  if(NOT summary_text MATCHES "${key},")
    message(FATAL_ERROR "cluster summary CSV is missing ${key}:\n${summary_text}")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${base_csv} ${noskip_csv}
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "skip-ahead neutrality: ${base_csv} and ${noskip_csv} differ")
endif()

message(STATUS "cluster smoke test passed")
