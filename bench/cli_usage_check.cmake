# CLI usage errors (the cli_usage_errors CTest): a mistyped flag, an
# unknown experiment name and half a file-mode log pair each exit 2 with
# a message naming the problem, instead of running with defaults.
#
#   cmake -DMTLSCOPE=PATH -P cli_usage_check.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED MTLSCOPE)
  message(FATAL_ERROR "cli_usage_check.cmake needs -DMTLSCOPE=")
endif()

# expect_usage_error(<stderr substring> <arg>...): `mtlscope <arg>...`
# must exit 2 and print the substring on stderr.
function(expect_usage_error want)
  execute_process(COMMAND "${MTLSCOPE}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REPLACE ";" " " command "mtlscope;${ARGN}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${command}: exited ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${command}: stderr lacks \"${want}\":\n${err}")
  endif()
  message(STATUS "${command}: exit 2, \"${want}\"")
endfunction()

expect_usage_error("unknown flag: --thread=4" run table1 --thread=4)
expect_usage_error("unknown experiment: no_such_table" run no_such_table)
expect_usage_error("file mode needs both" run table1 --x509-log=x509.log)
expect_usage_error("file mode needs both"
                   map --state-out=state.bin --x509-log=x509.log)
