# Runs `whart_cli --typical --what-if link=2:0.3 --metrics=<file>` and
# fails unless the one query re-walked exactly the four paths scheduled
# over link 2: hart.whatif.queries must be 1 and
# hart.whatif.paths_resolved must be 4.
#
#   cmake -DWHART_CLI=<whart_cli> -DMETRICS=<file> \
#         -P check_what_if_metrics.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE "${METRICS}")
execute_process(
  COMMAND "${WHART_CLI}" --typical --what-if link=2:0.3
          "--metrics=${METRICS}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "whart_cli exited with status ${status}")
endif()

file(READ "${METRICS}" json)
foreach(check "hart.whatif.queries:1" "hart.whatif.paths_resolved:4")
  string(REPLACE ":" ";" check "${check}")
  list(GET check 0 counter)
  list(GET check 1 expected)
  string(JSON value ERROR_VARIABLE missing GET "${json}" counters ${counter})
  if(missing)
    message(FATAL_ERROR "${counter} is absent, expected ${expected}")
  elseif(NOT value EQUAL expected)
    message(FATAL_ERROR "${counter} is ${value}, expected ${expected}")
  endif()
endforeach()
