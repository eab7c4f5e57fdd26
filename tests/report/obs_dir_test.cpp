// The --obs-dir session: a contract failure while the session is open
// dumps the flight recorder into the bundle directory.  The bundle's
// contents and the rejected directories are checked on the binaries
// (tests/cli/check_obs_bundle.cmake and the *_rejects_obs_dir_* ctests).
#include "whart/report/obs_dir.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::report {
namespace {

namespace fs = std::filesystem;
namespace obs = common::obs;

/// Restores the global surfaces an ObsDirSession switches on.
struct ObsStateGuard {
  bool metrics = obs::metrics_enabled();
  bool trace = obs::trace_enabled();
  bool events = obs::events_enabled();
  std::string dump_path = obs::contract_dump_path();
  ~ObsStateGuard() {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
    obs::set_events_enabled(events);
    obs::set_contract_dump_path(dump_path);
  }
};

TEST(ObsDirSession, ContractFailureDumpsIntoTheDirectory) {
  const ObsStateGuard guard;
  const fs::path dir = fs::path(testing::TempDir()) / "whart_obs_dir_crash";
  fs::remove_all(dir);
  const ObsDirSession session(dir.string());
  EXPECT_THROW(expects(false, "crash in the bundle"), precondition_error);
  std::ifstream dump(dir / "events_crash.jsonl");
  ASSERT_TRUE(dump.is_open());
  std::string first;
  std::getline(dump, first);
  EXPECT_NE(first.find("crash in the bundle"), std::string::npos) << first;
}

}  // namespace
}  // namespace whart::report
