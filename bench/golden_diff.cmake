# Golden-file regression (the repro_golden_diff CTest): runs every
# experiment through the CLI in one process — `mtlscope run --all
# --stable-output`, which shares pipeline passes between compatible
# experiments — and byte-compares each <name>.txt against the committed
# golden of the same name. Goldens are recorded at the default scales
# with volatile output suppressed, so any thread count must reproduce
# them. A difference, a missing golden and a golden without an
# experiment each fail the check, naming the experiment.
#
#   cmake -DMTLSCOPE=PATH -DGOLDEN_DIR=DIR -DOUT_DIR=DIR -P golden_diff.cmake
#
# Re-bless after an intentional output change with
#   mtlscope run --all --stable-output --out=tests/golden
cmake_minimum_required(VERSION 3.16)

foreach(var MTLSCOPE GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_diff.cmake needs -D${var}=")
  endif()
endforeach()

# Prints the first line where two renderings part: bisect the longest
# common byte prefix, then show the line it ends in from both sides.
function(report_first_difference name golden actual)
  string(LENGTH "${golden}" golden_len)
  string(LENGTH "${actual}" actual_len)
  set(lo 0)
  set(hi ${golden_len})
  if(actual_len LESS hi)
    set(hi ${actual_len})
  endif()
  while(lo LESS hi)
    math(EXPR mid "(${lo} + ${hi} + 1) / 2")
    string(SUBSTRING "${golden}" 0 ${mid} golden_prefix)
    string(SUBSTRING "${actual}" 0 ${mid} actual_prefix)
    if(golden_prefix STREQUAL actual_prefix)
      set(lo ${mid})
    else()
      math(EXPR hi "${mid} - 1")
    endif()
  endwhile()
  string(SUBSTRING "${golden}" 0 ${lo} prefix)
  string(REPLACE "\n" "" stripped "${prefix}")
  string(LENGTH "${stripped}" stripped_len)
  math(EXPR line "${lo} - ${stripped_len} + 1")
  string(FIND "${prefix}" "\n" line_start REVERSE)
  math(EXPR line_start "${line_start} + 1")
  foreach(side golden actual)
    if(line_start LESS ${side}_len)
      string(SUBSTRING "${${side}}" ${line_start} -1 rest)
      string(FIND "${rest}" "\n" line_end)
      string(SUBSTRING "${rest}" 0 ${line_end} ${side}_line)
    else()
      set(${side}_line "<end of file>")
    endif()
  endforeach()
  message("${name}: first difference at line ${line}\n"
          "  golden: ${golden_line}\n"
          "  actual: ${actual_line}")
endfunction()

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${MTLSCOPE}" run --all --stable-output "--out=${OUT_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtlscope run --all exited ${rc}")
endif()

file(GLOB actual_files RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.txt")
file(GLOB golden_files RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.txt")
set(files ${actual_files} ${golden_files})
list(REMOVE_DUPLICATES files)
list(SORT files)

set(failures 0)
foreach(file ${files})
  string(REGEX REPLACE "\\.txt$" "" name "${file}")
  if(NOT EXISTS "${GOLDEN_DIR}/${file}")
    message("${name}: missing golden ${GOLDEN_DIR}/${file}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  if(NOT EXISTS "${OUT_DIR}/${file}")
    message("${name}: golden ${GOLDEN_DIR}/${file} has no experiment "
            "(not in `mtlscope list`; delete the stale golden)")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  file(SHA256 "${GOLDEN_DIR}/${file}" golden_sha)
  file(SHA256 "${OUT_DIR}/${file}" actual_sha)
  file(SIZE "${OUT_DIR}/${file}" size)
  if(golden_sha STREQUAL actual_sha)
    message(STATUS "${name} OK (${size} bytes)")
  else()
    file(READ "${GOLDEN_DIR}/${file}" golden)
    file(READ "${OUT_DIR}/${file}" actual)
    report_first_difference(${name} "${golden}" "${actual}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR
          "${failures} experiment(s) diverged from goldens. After an "
          "intentional output change, re-bless with:\n"
          "  ${MTLSCOPE} run --all --stable-output --out=${GOLDEN_DIR}")
endif()
