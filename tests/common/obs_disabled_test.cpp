// Compile-time kill switch: this translation unit is built with
// WHART_OBS_DISABLED (see tests/CMakeLists.txt), under which every
// instrumentation macro must expand to nothing — in particular the
// macro arguments must still type-check but never be evaluated.
#include <gtest/gtest.h>

#include "whart/common/obs.hpp"

#ifndef WHART_OBS_DISABLED
#error "this test must be compiled with WHART_OBS_DISABLED"
#endif

namespace whart::common::obs {
namespace {

int evaluations = 0;
int count_me() {
  ++evaluations;
  return 1;
}

TEST(ObsDisabled, MacrosCompileToNoOpsAndNeverEvaluateArguments) {
  evaluations = 0;
  WHART_SPAN("disabled_span");
  WHART_TIMER("disabled.timer.ns");
  WHART_COUNT("disabled.counter");
  WHART_COUNT_N("disabled.counter", count_me());
  WHART_GAUGE_SET("disabled.gauge", count_me());
  WHART_GAUGE_ADD("disabled.gauge", count_me());
  WHART_OBSERVE("disabled.hist", count_me());
  WHART_REQUEST_SPAN("disabled_request");
  WHART_EVENT(kGeneric, "disabled.event", count_me(), count_me());
  EXPECT_EQ(evaluations, 0);
}

TEST(ObsDisabled, MacrosAreStatementSafe) {
  // Must behave as single statements in unbraced control flow.
  if (true)
    WHART_COUNT("disabled.branch");
  else
    WHART_COUNT("disabled.other_branch");
  for (int i = 0; i < 2; ++i) WHART_COUNT_N("disabled.loop", i);
  if (true)
    WHART_EVENT(kGeneric, "disabled.branch_event", 1, 2);
  else
    WHART_GAUGE_ADD("disabled.branch_gauge", 1.0);
  SUCCEED();
}

TEST(ObsDisabled, RegistryApiRemainsUsableDirectly) {
  // The classes stay available even when the macros are compiled out —
  // callers holding explicit Counter members keep working.
  Counter c;
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
  Registry::instance().counter("disabled.direct").add(1);
  EXPECT_GE(Registry::instance()
                .snapshot()
                .counters.at("disabled.direct"),
            1u);
}

}  // namespace
}  // namespace whart::common::obs
