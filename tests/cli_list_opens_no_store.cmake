# The stores belong to artifact mode: --store or --trace-store next to
# --list or a kernel run prints usage, exits 2, and neither opens nor
# creates a store. Each flag runs with each mode at a fresh path in
# WORK_DIR, which must stay empty. Invoked by ctest with
# -DBINARY=<sttsim> -DWORK_DIR=<scratch directory it may wipe>.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(mode IN ITEMS --list --kernel=trisolv)
  foreach(flag IN ITEMS --store=${WORK_DIR}/results.log
                        --trace-store=${WORK_DIR}/traces.log)
    execute_process(COMMAND ${BINARY} ${mode} ${flag}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2")
      message(FATAL_ERROR "${mode} ${flag}: exit '${rc}', expected 2: ${err}")
    endif()
  endforeach()
endforeach()
file(GLOB created "${WORK_DIR}/*")
if(created)
  message(FATAL_ERROR "a store flag outside artifact mode created: ${created}")
endif()
