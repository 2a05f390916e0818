# CLI usage errors (the cli_usage_errors CTest): a mistyped flag, a flag
# the verb does not read, an unknown experiment name, half a file-mode log
# pair, an empty required flag and a malformed or out-of-range flag value
# each exit 2 with a message naming the problem, instead of running with
# defaults. A verb's usage, printed after an unknown flag, is generated
# from its flag table.
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
expect_usage_error("bad --seed=xyz" run table1 --seed=xyz)
expect_usage_error("bad --threads=abc" run table1 --threads=abc)
expect_usage_error("bad --cert-scale=0" run table1 --cert-scale=0)
expect_usage_error("bad --max-error-rate=x" run table1 --max-error-rate=x)
expect_usage_error("bad --block-rows=x"
                   compact --block-rows=x --out=x.mtlc --ssl-log=s --x509-log=x)
expect_usage_error("bad --checkpoint-every=x"
                   watch --checkpoint-every=x --out-dir=out --all)
expect_usage_error("bad --window=fortnight"
                   watch --window=fortnight --out-dir=out --all)
expect_usage_error("bad --window=0" watch --window=0 --out-dir=out --all)
expect_usage_error("bad --format=auto" reduce s.state --format=auto)

# Each verb accepts only the shared flags its code reads; the rest are
# refused by name rather than ignored.
foreach(flag --threads=4 --cert-scale=1 --conn-scale=1 --seed=5
             --format=zeek --in-memory --force-buffered --stable-output)
  expect_usage_error("unknown flag: ${flag}"
                     compact ${flag} --out=x.mtlc --ssl-log=s --x509-log=x)
endforeach()
foreach(flag --in-memory --stable-output)
  expect_usage_error("unknown flag: ${flag}"
                     map --state-out=state.bin ${flag})
endforeach()
foreach(flag --seed=5 --chunk-mb=1 --in-memory --force-buffered
             --max-errors=3 --max-error-rate=0.5)
  expect_usage_error("unknown flag: ${flag}" reduce s.state ${flag})
endforeach()
foreach(flag --chunk-mb=1 --in-memory --force-buffered --max-errors=3
             --max-error-rate=0.5)
  expect_usage_error("unknown flag: ${flag}"
                     watch --out-dir=out --all ${flag})
endforeach()

# A required flag with an empty value (an unset shell variable) is refused
# like a missing one rather than run on an empty path.
expect_usage_error("watch needs --ssl-log=FILE"
                   watch --ssl-log= --out-dir=out --all)
expect_usage_error("watch needs --out-dir=DIR"
                   watch --ssl-log=s --x509-log=x --out-dir= --all)
expect_usage_error("compact needs --out=FILE" compact --out= --verify)
expect_usage_error("map needs --state-out=FILE"
                   map --state-out= --cert-scale=1 --conn-scale=1)

# The usage after an unknown flag is that verb's table.
foreach(want "unknown flag: --bogus" --checkpoint-keep= --report-x509-log=)
  expect_usage_error("${want}" watch --bogus)
endforeach()
foreach(want "unknown flag: --bogus" --dict-mb= --block-rows=)
  expect_usage_error("${want}" compact --bogus)
endforeach()
