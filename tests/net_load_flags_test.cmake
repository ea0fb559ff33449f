# net_load refuses a malformed or out-of-range flag with its usage and
# exit status 2 before it connects anywhere, and a well-formed command
# line against a port with no listener fails with "connect failed".
# Port 1 on the loopback has no listener, so a flag that slipped through
# would end in that connect failure (exit 1) instead of the usage.
#
#   cmake -DNET_LOAD=build/tools/net_load -P tests/net_load_flags_test.cmake
set(malformed
    --port=70000
    --port=-1
    --port=1x
    --clients=8x
    --clients=-2
    --duration=5s
    --duration=nan
    --duration=-1
    --pr-update=nan
    --pr-update=1.5
    --pr-ping=inf
    --num-top=
    --update-batch=+3
    --attr=258
    --attr=3
    --seed=0x10
    --endpoints=127.0.0.1:70000
    --endpoints=127.0.0.1:1x)
foreach(flag IN LISTS malformed)
  execute_process(COMMAND ${NET_LOAD} --port=1 --clients=1 --duration=0
                          ${flag}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage:")
    message(SEND_ERROR "${flag}: exit status ${rc}, want 2 with usage")
  endif()
endforeach()

execute_process(COMMAND ${NET_LOAD} --port=1 --clients=1 --duration=0
                        --pr-update=0.5 --attr=2 --seed=7
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "connect failed")
  message(SEND_ERROR "well-formed flags: exit status ${rc}, want 1 with "
                     "'connect failed': ${err}")
endif()
