# Runs `whart_cli --typical --simulate 500 --shards 4 --trace=<file>` and
# fails unless the trace holds at least one pool_task span and every
# pool_task span's flow id has both an "s" and an "f" flow event: a task
# span naming a flow the trace never wrote has no cross-thread arrow.
# Run it with WHART_THREADS >= 2 so the pool, and its flows, exist.
#
#   cmake -DWHART_CLI=<whart_cli> -DTRACE=<file> -P check_trace_flows.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE "${TRACE}")
execute_process(
  COMMAND "${WHART_CLI}" --typical --simulate 500 --shards 4
          "--trace=${TRACE}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "whart_cli exited with status ${status}")
endif()

file(READ "${TRACE}" json)
string(JSON count LENGTH "${json}" traceEvents)
set(begins "")
set(ends "")
set(task_flows "")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON event GET "${json}" traceEvents ${i})
  string(JSON ph GET "${event}" ph)
  if(ph STREQUAL "s" OR ph STREQUAL "f")
    string(JSON id GET "${event}" id)
    if(ph STREQUAL "s")
      list(APPEND begins "${id}")
    else()
      list(APPEND ends "${id}")
    endif()
  elseif(ph STREQUAL "X")
    string(JSON name GET "${event}" name)
    if(name STREQUAL "pool_task")
      string(JSON flow GET "${event}" args flow)
      list(APPEND task_flows "${flow}")
    endif()
  endif()
endforeach()

if(NOT task_flows)
  message(FATAL_ERROR "the trace holds no pool_task span; "
                      "run with WHART_THREADS >= 2")
endif()
foreach(flow IN LISTS task_flows)
  if(NOT flow IN_LIST begins OR NOT flow IN_LIST ends)
    message(FATAL_ERROR "pool_task flow ${flow} lacks an s/f pair")
  endif()
endforeach()
