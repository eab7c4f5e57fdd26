# Runs `whart_cli --typical --what-if link=2:0.3 --metrics=<file>` at the
# default kernel and fails unless the query re-solved its four affected
# paths through the incremental replay: hart.whatif.incremental_solves
# must be 4 and hart.whatif.incremental_fallback must be absent.
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
string(JSON solves ERROR_VARIABLE missing
       GET "${json}" counters hart.whatif.incremental_solves)
if(missing)
  message(FATAL_ERROR "hart.whatif.incremental_solves is absent, expected 4")
elseif(NOT solves EQUAL 4)
  message(FATAL_ERROR "hart.whatif.incremental_solves is ${solves}, "
                      "expected 4")
endif()
string(JSON fallbacks ERROR_VARIABLE absent
       GET "${json}" counters hart.whatif.incremental_fallback)
if(NOT absent)
  message(FATAL_ERROR "hart.whatif.incremental_fallback is ${fallbacks}, "
                      "expected no fallback")
endif()
