# Runs the command given after `--` and fails unless it exits with EXPECT.
# With MATCH set, its output must also match that regex. With GOLDEN set,
# the file OUT the command writes must also equal GOLDEN byte for byte.
#
#   cmake -DEXPECT=1 [-DMATCH=re] [-DOUT=f -DGOLDEN=g] -P expect.cmake -- COMMAND ARGS...
set(cmd "")
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT}")
endif()
if(MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match \"${MATCH}\"")
endif()
if(GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}" "${GOLDEN}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
  endif()
endif()
