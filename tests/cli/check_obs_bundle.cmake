# Runs `<BINARY> <ARGS> --obs-dir=<DIR>` into a fresh directory and fails
# unless the bundle holds exactly metrics.json, trace.json and
# events.jsonl, events.jsonl has a solve_done event, and metrics.json
# has the hart.path_solve.count counter.
#
#   cmake -DBINARY=<exe> "-DARGS=<space-separated arguments>" -DDIR=<dir> \
#         -P check_obs_bundle.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BINARY}" ${args} "--obs-dir=${DIR}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${status}")
endif()

file(GLOB artifacts RELATIVE "${DIR}" "${DIR}/*")
list(SORT artifacts)
if(NOT artifacts STREQUAL "events.jsonl;metrics.json;trace.json")
  message(FATAL_ERROR "the bundle holds [${artifacts}], expected exactly "
                      "events.jsonl, metrics.json and trace.json")
endif()

file(STRINGS "${DIR}/events.jsonl" solves REGEX "\"kind\": \"solve_done\"")
if(NOT solves)
  message(FATAL_ERROR "events.jsonl has no solve_done event")
endif()

file(READ "${DIR}/metrics.json" json)
string(JSON solves ERROR_VARIABLE missing
       GET "${json}" counters hart.path_solve.count)
if(missing)
  message(FATAL_ERROR "metrics.json has no hart.path_solve.count counter")
endif()
