# Runs one paper bench and requires its stdout to equal the committed
# golden file byte for byte. The benches print average page I/O per query,
# which is deterministic, so any change to the pool's victim order, a
# strategy's access path or the I/O accounting shows up as a diff.
#
#   cmake -DBENCH=build/bench/fig5_cost_breakdown \
#         -DGOLDEN=tests/golden/fig5_cost_breakdown.txt \
#         -DACTUAL=/tmp/fig5_cost_breakdown.txt -P tests/paper_golden_test.cmake
execute_process(COMMAND ${BENCH} RESULT_VARIABLE rc OUTPUT_FILE ${ACTUAL}
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BENCH}: exit status ${rc}: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; "
                      "the run's output is in ${ACTUAL}")
endif()
