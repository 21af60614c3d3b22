# `sttsim --list` reads no store, so it must neither open nor create one,
# even when --store and --trace-store name one. Two runs: with both paths
# in a directory that does not exist (an opened store would fail and exit
# 1), then with both at fresh paths in WORK_DIR (an opened store would
# create its file). Invoked by ctest with -DBINARY=<sttsim>
# -DWORK_DIR=<scratch directory it may wipe>.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(missing "${WORK_DIR}/no-such-dir")
execute_process(
  COMMAND ${BINARY} --store=${missing}/results.log
          --trace-store=${missing}/traces.log --list
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR
    "--list with both stores in a missing directory: exit '${rc}': ${err}")
endif()

execute_process(
  COMMAND ${BINARY} --store=${WORK_DIR}/results.log
          --trace-store=${WORK_DIR}/traces.log --list
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "--list with fresh store paths: exit '${rc}': ${err}")
endif()
file(GLOB created "${WORK_DIR}/*")
if(created)
  message(FATAL_ERROR "--list created store files: ${created}")
endif()
