// LiveMonitor / parse_status: the one live sampler of a supervised
// batch — the status.json it publishes for `peerscope watch` and the
// SLOs it judges on the same per-run window. The window and SLO tests
// drive sample() with synthetic time points, so they need no sleeps.
#include "exp/status.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/supervisor.hpp"
#include "support/temp_dir.hpp"
#include "util/cancel.hpp"

namespace peerscope::exp {
namespace {

namespace fs = std::filesystem;
using Clock = LiveMonitor::Clock;

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One running attempt under a monitor, its cancel token attached and
/// its samples taken on a synthetic clock.
struct Harness {
  explicit Harness(SloSpec slo, fs::path status = {})
      : monitor{std::move(status), slo},
        live{monitor.add_run("PPLive#seed=7#dur=60000000000", 60.0)} {
    live.attempts.store(1);
    live.state.store(LiveRun::kRunning);
    live.progress.active.store(true);
    monitor.attach(live, token);
  }

  /// Samples `seconds` after the synthetic epoch.
  void sample_at(double seconds) {
    monitor.sample(t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds)));
  }

  /// Samples one monitor period after the previous sample_poll().
  void sample_poll() {
    monitor.sample(t0 + LiveMonitor::kPoll * polls++);
  }

  util::CancelToken token;
  LiveMonitor monitor;
  LiveRun& live;
  const Clock::time_point t0 = Clock::time_point{} + std::chrono::hours{1};
  int polls = 0;
};

class StatusTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = test::unique_temp_dir(); }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] StatusRunView status_run() const {
    const auto view = parse_status(read_file(dir_ / "status.json"));
    EXPECT_TRUE(view.has_value());
    EXPECT_EQ(view.value_or(StatusView{}).runs.size(), 1u);
    if (!view || view->runs.empty()) return {};
    return view->runs.front();
  }

  fs::path dir_;
};

TEST_F(StatusTest, ReporterDocumentRoundTripsThroughParseStatus) {
  const fs::path path = dir_ / "status.json";
  LiveMonitor monitor{path, {}};
  LiveRun& alpha = monitor.add_run("PPLive#seed=7#dur=60000000000", 60.0);
  monitor.add_run("TVAnts#seed=1#dur=25000000000", 25.0);
  monitor.start();

  alpha.state.store(LiveRun::kRunning);
  alpha.attempts.store(1);
  alpha.progress.events.store(123'456);
  alpha.progress.sim_time_ns.store(5'500'000'000);
  alpha.state.store(static_cast<int>(RunState::kOk));
  monitor.stop();  // the final sample reads the numbers above

  const auto view = parse_status(read_file(path));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
  ASSERT_EQ(view->runs.size(), 2u);
  EXPECT_EQ(view->runs[0].spec, "PPLive#seed=7#dur=60000000000");
  EXPECT_EQ(view->runs[0].state, to_string(RunState::kOk));
  EXPECT_EQ(view->runs[0].attempts, 1);
  EXPECT_EQ(view->runs[0].events, 123'456u);
  EXPECT_NEAR(view->runs[0].sim_time_s, 5.5, 1e-3);
  EXPECT_EQ(view->runs[1].state, "pending");
  EXPECT_EQ(view->runs[1].eta_s, -1);  // never ran: ETA unknown
}

TEST_F(StatusTest, StopIsIdempotentAndTheDestructorFinalises) {
  const fs::path path = dir_ / "status.json";
  {
    LiveMonitor monitor{path, {}};
    monitor.add_run("run", 1.0);
    monitor.start();
    monitor.stop();
    monitor.stop();
  }  // destructor calls stop() again
  const auto view = parse_status(read_file(path));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
}

TEST_F(StatusTest, AddRunAfterStartThrows) {
  LiveMonitor monitor{dir_ / "status.json", {}};
  monitor.add_run("early", 1.0);
  monitor.start();
  EXPECT_THROW((void)monitor.add_run("late", 1.0), std::logic_error);
  monitor.stop();
}

TEST_F(StatusTest, BrokenStatusPathDoesNotKillTheBatch) {
  // Status is advisory: pointing it at a directory that cannot exist
  // must only warn, never throw.
  LiveMonitor monitor{dir_ / "no" / "such" / "dir" / "status.json", {}};
  monitor.add_run("run", 1.0);
  EXPECT_NO_THROW(monitor.start());
  EXPECT_NO_THROW(monitor.stop());
}

TEST_F(StatusTest, WindowRatesAndEta) {
  Harness h{{}, dir_ / "status.json"};
  h.live.progress.events.store(1'000);
  h.live.progress.sim_time_ns.store(1'000'000'000);
  h.sample_at(0);  // primes: no rate yet, ETA unknown
  EXPECT_EQ(status_run().events_per_s, 0);
  EXPECT_EQ(status_run().eta_s, -1);

  h.live.progress.events.store(3'000);
  h.live.progress.sim_time_ns.store(3'000'000'000);
  h.sample_at(2);  // 2000 events and 2 sim seconds in 2 wall seconds
  const StatusRunView run = status_run();
  EXPECT_EQ(run.state, "running");
  EXPECT_EQ(run.events, 3'000u);
  EXPECT_NEAR(run.events_per_s, 1'000, 1e-6);
  EXPECT_NEAR(run.eta_s, 57, 1e-6);  // (60 - 3) s at 1 sim s per s
}

TEST_F(StatusTest, AttemptRestartRePrimesTheWindow) {
  Harness h{{}, dir_ / "status.json"};
  h.live.progress.events.store(1'000);
  h.live.progress.sim_time_ns.store(1'000'000'000);
  h.sample_at(0);
  h.live.progress.events.store(3'000);
  h.live.progress.sim_time_ns.store(2'000'000'000);
  h.sample_at(1);
  EXPECT_NEAR(status_run().events_per_s, 2'000, 1e-6);

  // Attempt 2 overtakes attempt 1's counters before the next sample:
  // a delta across the restart would claim 2000 events/s.
  h.live.progress.reset();
  h.live.attempts.store(2);
  h.live.progress.active.store(true);
  h.live.progress.events.store(5'000);
  h.live.progress.sim_time_ns.store(3'000'000'000);
  h.sample_at(2);
  StatusRunView run = status_run();
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.events_per_s, 0);
  EXPECT_EQ(run.eta_s, -1);

  h.live.progress.events.store(5'600);
  h.live.progress.sim_time_ns.store(3'500'000'000);
  h.sample_at(3);
  run = status_run();
  EXPECT_NEAR(run.events_per_s, 600, 1e-6);
  EXPECT_NEAR(run.eta_s, 113, 1e-6);  // (60 - 3.5) s at 0.5 sim s per s
}

TEST_F(StatusTest, TripReasonRateMatchesTheStatusDocument) {
  SloSpec slo;
  slo.events_per_s_floor = 1e12;
  Harness h{slo, dir_ / "status.json"};
  h.sample_poll();  // primes
  for (const std::uint64_t step : {1'500u, 1'500u, 1'801u}) {
    h.live.progress.events.fetch_add(step);
    h.live.progress.sim_time_ns.fetch_add(1'000'000);
    h.sample_poll();
  }
  ASSERT_TRUE(h.token.cancelled());
  const std::string reason = h.monitor.detach(h.live);
  // One window feeds both: the trip quotes the rate status.json shows.
  const double shown = status_run().events_per_s;
  EXPECT_NEAR(shown, 9'005, 1e-6);  // 1801 events in 0.2 s
  const std::string quoted =
      std::to_string(static_cast<long long>(std::lround(shown)));
  EXPECT_EQ(reason, "events/s " + quoted +
                        " below floor 1000000000000 for 3 windows");
}

TEST(ParseStatus, ReadsAHandcraftedDocument) {
  const std::string doc =
      "{\"schema\":\"peerscope.status/1\",\"phase\":\"running\","
      "\"runs\":[{\"spec\":\"A \\\"quoted\\\" run\",\"state\":\"running\","
      "\"attempts\":2,\"events\":42,\"sim_time_s\":1.500,"
      "\"events_per_s\":7.000,\"eta_s\":12.000}]}\n";
  const auto view = parse_status(doc);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "running");
  ASSERT_EQ(view->runs.size(), 1u);
  EXPECT_EQ(view->runs[0].spec, "A \"quoted\" run");
  EXPECT_EQ(view->runs[0].state, "running");
  EXPECT_EQ(view->runs[0].attempts, 2);
  EXPECT_EQ(view->runs[0].events, 42u);
  EXPECT_NEAR(view->runs[0].sim_time_s, 1.5, 1e-9);
  EXPECT_NEAR(view->runs[0].events_per_s, 7.0, 1e-9);
  EXPECT_NEAR(view->runs[0].eta_s, 12.0, 1e-9);
}

TEST(ParseStatus, RejectsGarbageAndForeignSchemas) {
  EXPECT_FALSE(parse_status("").has_value());
  EXPECT_FALSE(parse_status("not json at all").has_value());
  EXPECT_FALSE(
      parse_status("{\"schema\":\"peerscope.metrics/1\",\"phase\":\"done\"}")
          .has_value());
  // Schema present but a run entry is missing fields.
  EXPECT_FALSE(parse_status("{\"schema\":\"peerscope.status/1\","
                            "\"phase\":\"running\","
                            "\"runs\":[{\"spec\":\"x\"}]}")
                   .has_value());
}

TEST(ParseStatus, EmptyRunListIsValid) {
  const auto view = parse_status(
      "{\"schema\":\"peerscope.status/1\",\"phase\":\"done\",\"runs\":[]}\n");
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
  EXPECT_TRUE(view->runs.empty());
}

TEST(SloSpec, EnabledOnlyWhenAnObjectiveIsSet) {
  SloSpec slo;
  EXPECT_FALSE(slo.enabled());
  slo.events_per_s_floor = 1.0;
  EXPECT_TRUE(slo.enabled());
  slo = SloSpec{};
  slo.stall_window_s = 1.0;
  EXPECT_TRUE(slo.enabled());
  slo = SloSpec{};
  slo.rejoin_p99_ceiling_ns = 1;
  EXPECT_TRUE(slo.enabled());
}

TEST(Watchdog, NeverTripsWhileProgressIsInactive) {
  SloSpec slo;
  slo.events_per_s_floor = 1e12;  // would trip at once if judged
  Harness h{slo};
  h.live.progress.active.store(false);
  for (int i = 0; i < 20; ++i) {
    h.live.progress.events.fetch_add(10);
    h.sample_poll();
  }
  EXPECT_FALSE(h.token.cancelled());
  EXPECT_EQ(h.monitor.detach(h.live), "");
}

TEST(Watchdog, DetachedAttemptIsNeverJudged) {
  SloSpec slo;
  slo.events_per_s_floor = 1e12;
  Harness h{slo};
  EXPECT_EQ(h.monitor.detach(h.live), "");
  for (int i = 0; i < 20; ++i) {
    h.live.progress.events.fetch_add(10);
    h.sample_poll();
  }
  EXPECT_FALSE(h.token.cancelled());
}

TEST(Watchdog, TripsOnSustainedEventRateFloorViolation) {
  SloSpec slo;
  slo.events_per_s_floor = 1e12;
  Harness h{slo};
  h.sample_poll();  // primes
  // Events advance, but far below the absurd floor: kSustain windows.
  for (int window = 1; window <= LiveMonitor::kSustain; ++window) {
    EXPECT_FALSE(h.token.cancelled()) << "tripped after " << window - 1;
    h.live.progress.events.fetch_add(10);
    h.live.progress.sim_time_ns.fetch_add(1'000'000);
    h.sample_poll();
  }
  EXPECT_TRUE(h.token.cancelled());
  EXPECT_EQ(h.monitor.detach(h.live),
            "events/s 50 below floor 1000000000000 for 3 windows");
}

TEST(Watchdog, TripsWhenSimTimeStalls) {
  SloSpec slo;
  slo.stall_window_s = 30;
  Harness h{slo};
  h.live.progress.sim_time_ns.store(42);  // frozen forever
  h.sample_at(0);
  h.live.progress.events.fetch_add(256);  // events alone are no progress
  h.sample_at(29);
  EXPECT_FALSE(h.token.cancelled());
  h.sample_at(30);
  EXPECT_TRUE(h.token.cancelled());
  EXPECT_EQ(h.monitor.detach(h.live), "sim time stalled at 42ns for 30s");
}

TEST(Watchdog, AdvancingSimTimeDefeatsTheStallObjective) {
  SloSpec slo;
  slo.stall_window_s = 30;
  Harness h{slo};
  for (int i = 0; i < 100; ++i) {  // 1000 wall seconds, sim time crawling
    h.live.progress.sim_time_ns.fetch_add(1'000);
    h.sample_at(10.0 * i);
  }
  EXPECT_FALSE(h.token.cancelled());
  EXPECT_EQ(h.monitor.detach(h.live), "");
}

TEST(Watchdog, TripsOnRejoinLatencyCeiling) {
  SloSpec slo;
  slo.rejoin_p99_ceiling_ns = 1'000'000;  // 1 ms
  Harness h{slo};
  h.live.progress.rejoin_p99_ns.store(50'000'000);  // 50 ms observed
  h.sample_poll();  // primes
  for (int window = 1; window <= LiveMonitor::kSustain; ++window) {
    EXPECT_FALSE(h.token.cancelled()) << "tripped after " << window - 1;
    h.sample_poll();
  }
  EXPECT_TRUE(h.token.cancelled());
  EXPECT_EQ(h.monitor.detach(h.live),
            "discovery rejoin p99 50000000ns above ceiling 1000000ns for 3 "
            "windows");
}

TEST(Watchdog, UnknownRejoinP99StaysInnocent) {
  // -1 means "no rejoin completed yet": not a violation.
  SloSpec slo;
  slo.rejoin_p99_ceiling_ns = 1;
  Harness h{slo};  // rejoin_p99_ns stays -1
  for (int i = 0; i < 20; ++i) h.sample_poll();
  EXPECT_FALSE(h.token.cancelled());
  EXPECT_EQ(h.monitor.detach(h.live), "");
}

}  // namespace
}  // namespace peerscope::exp
