# Runs a command-line binary once per malformed numeric flag value and
# requires exit status 2 (usage) every time: not 1 (a parse exception
# escaping), not 0 (a prefix such as "2x" silently read as 2, or a value
# that leaves nothing to run), not a crash (a negative value wrapped to a
# huge unsigned). Well-formed values of the same flags must still be
# accepted. Invoked by ctest with
#   -DBINARY=<binary> -DBASE=<args before every malformed flag>
#   -DMALFORMED=<one flag per run> -DWELL_FORMED=<args of one run>
# where each value is a CMake list.
foreach(flag IN LISTS MALFORMED)
  execute_process(COMMAND ${BINARY} ${BASE} ${flag}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${BINARY} ${flag}: exit '${rc}', expected 2")
  endif()
endforeach()

execute_process(COMMAND ${BINARY} ${WELL_FORMED}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR
    "${BINARY} with well-formed numeric flags ${WELL_FORMED}: exit '${rc}'")
endif()
