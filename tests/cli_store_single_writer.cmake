# One writer per store path. A run whose --store path another process
# holds (flock(1) here) must exit 0, print exactly the storeless output,
# write one stderr line naming the path, and leave the held file as it
# was (empty). One path given to both --store and --trace-store keeps the
# result store and runs without the trace store, so the second run is
# warm instead of re-initializing the file. Invoked by ctest with
# -DBINARY=<sttsim> -DFLOCK=<flock(1)> -DWORK_DIR=<scratch directory it
# may wipe>.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(args --artifact=fig1_dropin_penalty --kernels=trisolv,gesummv --csv)

execute_process(
  COMMAND ${BINARY} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE reference ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "storeless run: exit '${rc}': ${err}")
endif()

set(held "${WORK_DIR}/held.log")
# A blocking lock would wait for flock(1) forever.
execute_process(
  COMMAND ${FLOCK} ${held} ${BINARY} ${args} --store=${held}
  TIMEOUT 60
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "run on a held store: exit '${rc}': ${err}")
endif()
if(NOT out STREQUAL reference)
  message(FATAL_ERROR "run on a held store changed the output:\n${out}")
endif()
string(REGEX MATCHALL "\n" lines "${err}")
list(LENGTH lines n_lines)
string(FIND "${err}" "${held}" at)
if(NOT n_lines EQUAL 1 OR NOT err MATCHES "\n$" OR at EQUAL -1)
  message(FATAL_ERROR
    "run on a held store: want one stderr line naming ${held}, got:\n${err}")
endif()
file(SIZE "${held}" size)
if(NOT size EQUAL 0)
  message(FATAL_ERROR "run on a held store wrote ${size} bytes to it")
endif()

set(shared "${WORK_DIR}/shared.log")
foreach(run cold warm)
  execute_process(
    COMMAND ${BINARY} ${args} --store=${shared} --trace-store=${shared}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${run} run with one path for both stores: "
                        "exit '${rc}': ${err}")
  endif()
  if(NOT out STREQUAL reference)
    message(FATAL_ERROR "${run} run with one path for both stores changed "
                        "the output:\n${out}")
  endif()
  if(err MATCHES "mismatch" OR NOT err MATCHES "trace store [^\n]*in use")
    message(FATAL_ERROR "${run} run with one path for both stores: the "
                        "trace store must be refused, not re-initialize "
                        "the file:\n${err}")
  endif()
endforeach()
if(NOT err MATCHES "4/4 grid points warm")
  message(FATAL_ERROR "second run with one path for both stores is not "
                      "warm:\n${err}")
endif()
