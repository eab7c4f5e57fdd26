# Runs `whart_cli <ARGS> --csv <DIR>/<NAME>.csv --sweep
# <DIR>/<NAME>_sweep.csv` and fails unless both files equal
# <GOLDEN_DIR>/<NAME>.csv and <GOLDEN_DIR>/<NAME>_sweep.csv byte for byte.
#
#   cmake -DWHART_CLI=<whart_cli> "-DARGS=<args>" -DNAME=<name> \
#         -DDIR=<dir> -DGOLDEN_DIR=<dir> -P check_csv_golden.cmake
cmake_minimum_required(VERSION 3.19)

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${DIR}")
set(files "${NAME}.csv" "${NAME}_sweep.csv")
foreach(file IN LISTS files)
  file(REMOVE "${DIR}/${file}")
endforeach()
execute_process(
  COMMAND "${WHART_CLI}" ${args} --csv "${DIR}/${NAME}.csv"
          --sweep "${DIR}/${NAME}_sweep.csv"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "whart_cli ${ARGS} exited with status ${status}")
endif()

foreach(file IN LISTS files)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${DIR}/${file}"
            "${GOLDEN_DIR}/${file}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${DIR}/${file} differs from ${GOLDEN_DIR}/${file}")
  endif()
endforeach()
