# Runs the sttsim CLI once per malformed numeric flag value and requires
# exit status 2 (usage) every time: not 1 (a parse exception escaping), not
# 0 (a prefix such as "2x" silently read as 2), not a crash (a negative
# value wrapped to a huge unsigned). Well-formed values of the same flags
# must still be accepted. Invoked by ctest with -DSTTSIM=<path to sttsim>.
set(malformed
  --jobs=abc --jobs=-1 --jobs= --batch=2x --deadline=abc --deadline=inf
  --vwb-kbit=2x --vwb-lines=-1 --banks=4.5 --clock-ghz=fast
  --clock-ghz=1GHz --faults=x --faults=1:2x --faults=1:2:3:4
  --faults=99999999999999999999 --ecc=2:x --ecc=1:2:3 --ecc=)
foreach(flag IN LISTS malformed)
  execute_process(COMMAND ${STTSIM} --kernel=trisolv ${flag}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "sttsim ${flag}: exit '${rc}', expected 2")
  endif()
endforeach()

execute_process(COMMAND ${STTSIM} --list --jobs=2 --batch=4 --deadline=0.5
  --vwb-kbit=4 --vwb-lines=4 --banks=8 --clock-ghz=1.5 --faults=7:100:5
  --ecc=2:20
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "sttsim with well-formed numeric flags: exit '${rc}'")
endif()
