# objrep_driver refuses a malformed numeric flag with its usage and exit
# status 2 before doing any work, and still runs well-formed ones.
#
#   cmake -DDRIVER=build/tools/objrep_driver -DCONFIG=configs/fig3_point.cfg \
#         -P tests/driver_flags_test.cmake
set(malformed
    --calibration-window=eight
    --threads=4x
    --io-latency-us=-1
    --num-queries=abc
    --num-queries=
    --duration=0.5s
    --fault-rate=nan
    --fault-seed=+7
    --port=70000
    --fault-crash-point=wal.commit:x)
foreach(flag IN LISTS malformed)
  execute_process(COMMAND ${DRIVER} ${flag} ${CONFIG}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage:")
    message(SEND_ERROR "${flag}: exit status ${rc}, want 2 with usage")
  endif()
endforeach()

execute_process(COMMAND ${DRIVER} --threads=2 --num-queries=5
                        --io-latency-us=0 --duration=0 ${CONFIG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(SEND_ERROR "well-formed flags: exit status ${rc}: ${err}")
endif()
