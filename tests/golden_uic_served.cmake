# Golden end-to-end regression over the uic_served daemon (ISSUE 7).
#
# Feeds a scripted JSON-lines session (tests/golden/uic_served_session.jsonl)
# to the daemon in pipe mode with --no-timing and pins every response line
# byte-for-byte. The transcript deliberately covers the whole verb roster —
# loads, a cold solve, a warm-pool fill, a warm hit (zero RR sets sampled,
# identical `result` bytes), an LT solve, both error classes, stats, unload,
# shutdown — so a drift in any layer (protocol framing, session registry,
# warm cache, solver, welfare estimator) fails this test with a diff.
#
# Usage:
#   cmake -DUIC_SERVED=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P golden_uic_served.cmake

if(NOT UIC_SERVED OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "golden_uic_served.cmake needs -DUIC_SERVED, -DGOLDEN_DIR and -DWORK_DIR")
endif()

# --- scripted session matches the pinned transcript -------------------

execute_process(
  COMMAND ${UIC_SERVED} --no-timing
  INPUT_FILE ${GOLDEN_DIR}/uic_served_session.jsonl
  OUTPUT_VARIABLE got
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve_session: uic_served exited with ${rc}\nstderr:\n${err}")
endif()
file(READ ${GOLDEN_DIR}/uic_served_session.out want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "serve_session: transcript differs from golden\n"
                      "--- got ---\n${got}\n--- want ---\n${want}")
endif()
message(STATUS "serve_session: exact match against uic_served_session.out")

# The session must be invariant to the worker count (seed-only
# determinism): re-run the identical transcript at 1 and 8 workers.
foreach(workers 1 8)
  execute_process(
    COMMAND ${UIC_SERVED} --no-timing --workers ${workers}
    INPUT_FILE ${GOLDEN_DIR}/uic_served_session.jsonl
    OUTPUT_VARIABLE got_w
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve_session_workers_${workers}: exited with ${rc}\n${err}")
  endif()
  if(NOT got_w STREQUAL want)
    message(FATAL_ERROR "serve_session_workers_${workers}: transcript differs "
                        "from the golden — responses must not depend on the "
                        "worker count\n--- got ---\n${got_w}")
  endif()
  message(STATUS "serve_session_workers_${workers}: identical transcript")
endforeach()

# --- usage errors exit 2 ----------------------------------------------

# A ping on stdin: a daemon that accepts the flags answers it and exits
# 0 at EOF instead of waiting for input. An unknown or repeated flag once
# ran that way (the default concurrency, the first --workers).
file(WRITE ${WORK_DIR}/ping.jsonl "{\"id\":1,\"verb\":\"ping\"}\n")
foreach(bad_flags "--workers;-1" "--workers;100000" "--concurrency;0"
        "--queue-capacity;-3" "--port;70000" "--concurrency;abc"
        "--concurency;4" "--workers;1;--workers;2")
  execute_process(
    COMMAND ${UIC_SERVED} ${bad_flags}
    INPUT_FILE ${WORK_DIR}/ping.jsonl
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "usage error '${bad_flags}': expected exit 2, got ${rc}")
  endif()
endforeach()
message(STATUS "usage errors: exit 2 as documented")
