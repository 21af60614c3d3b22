# `sttsim --list` reads no store, so it must neither open nor create one,
# even when STTSIM_RESULT_STORE / STTSIM_TRACE_STORE name one. Two runs:
# with both variables pointing into a directory that does not exist (an
# opened store would fail and exit 1), then with both pointing at fresh
# paths in WORK_DIR (an opened store would create its file). Invoked by
# ctest with -DBINARY=<sttsim> -DWORK_DIR=<scratch directory it may wipe>.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(missing "${WORK_DIR}/no-such-dir")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "STTSIM_RESULT_STORE=${missing}/results.log"
          "STTSIM_TRACE_STORE=${missing}/traces.log"
          ${BINARY} --list
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR
    "--list with both stores in a missing directory: exit '${rc}': ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "STTSIM_RESULT_STORE=${WORK_DIR}/results.log"
          "STTSIM_TRACE_STORE=${WORK_DIR}/traces.log"
          ${BINARY} --list
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "--list with fresh store paths: exit '${rc}': ${err}")
endif()
file(GLOB created "${WORK_DIR}/*")
if(created)
  message(FATAL_ERROR "--list created store files: ${created}")
endif()
