// Engine sampling-grid and live-progress hooks (§5.6): grid points
// are a pure function of (seed, configuration) — fired after every
// event with timestamp ≤ the grid time and before any event after it,
// flushed to a finite horizon even when the queue drains early, and
// absent entirely for open-ended runs.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/progress.hpp"

namespace peerscope::sim {
namespace {

using util::SimTime;

struct Sample {
  std::uint64_t index;
  std::int64_t at_ns;
  bool operator==(const Sample&) const = default;
};

std::vector<Sample>* capture_into(Engine& engine, SimTime interval,
                                  std::vector<Sample>& out) {
  engine.set_sampler(interval, [&out](std::uint64_t index, SimTime at) {
    out.push_back(Sample{index, at.ns()});
  });
  return &out;
}

TEST(EngineSampler, FiresEveryGridPointInOrder) {
  Engine engine;
  std::vector<Sample> samples;
  capture_into(engine, SimTime::millis(10), samples);
  for (int ms : {5, 15, 25}) {
    engine.schedule_at(SimTime::millis(ms), [] {});
  }
  engine.run_until(SimTime::millis(30));
  const std::vector<Sample> want{{0, SimTime::millis(10).ns()},
                                 {1, SimTime::millis(20).ns()},
                                 {2, SimTime::millis(30).ns()}};
  EXPECT_EQ(samples, want);
}

TEST(EngineSampler, EventsAtTheGridTimeExecuteBeforeTheSample) {
  // An event stamped exactly k·interval belongs to interval k: the
  // sample at that grid point must observe it.
  Engine engine;
  std::vector<std::string> log;
  engine.set_sampler(SimTime::millis(10), [&log](std::uint64_t, SimTime at) {
    log.push_back("sample@" + std::to_string(at.ns() / 1'000'000));
  });
  engine.schedule_at(SimTime::millis(10), [&log] { log.push_back("on-grid"); });
  engine.schedule_at(SimTime::millis(11), [&log] { log.push_back("after"); });
  engine.run_until(SimTime::millis(20));
  const std::vector<std::string> want{"on-grid", "sample@10", "after",
                                      "sample@20"};
  EXPECT_EQ(log, want);
}

TEST(EngineSampler, FiniteHorizonFlushesTheGridAfterTheQueueDrains) {
  Engine engine;
  std::vector<Sample> samples;
  capture_into(engine, SimTime::millis(10), samples);
  engine.schedule_at(SimTime::millis(5), [] {});
  engine.run_until(SimTime::millis(100));
  ASSERT_EQ(samples.size(), 10u);  // 10 ms .. 100 ms inclusive
  EXPECT_EQ(samples.front(), (Sample{0, SimTime::millis(10).ns()}));
  EXPECT_EQ(samples.back(), (Sample{9, SimTime::millis(100).ns()}));
}

TEST(EngineSampler, OpenEndedRunHasNoTrailingGrid) {
  // run() has no horizon, hence no grid end: once the queue drains,
  // sampling stops where execution stopped.
  Engine engine;
  std::vector<Sample> samples;
  capture_into(engine, SimTime::millis(10), samples);
  engine.schedule_at(SimTime::millis(5), [] {});
  engine.run();
  EXPECT_TRUE(samples.empty());
}

TEST(EngineSampler, GridContinuesAcrossDrives) {
  // Driving the engine in two run_until calls yields the same grid as
  // one call: indices and timestamps continue, nothing repeats.
  Engine engine;
  std::vector<Sample> samples;
  capture_into(engine, SimTime::millis(10), samples);
  engine.schedule_at(SimTime::millis(5), [] {});
  engine.schedule_at(SimTime::millis(22), [] {});
  engine.run_until(SimTime::millis(15));
  ASSERT_EQ(samples.size(), 1u);
  engine.run_until(SimTime::millis(30));
  const std::vector<Sample> want{{0, SimTime::millis(10).ns()},
                                 {1, SimTime::millis(20).ns()},
                                 {2, SimTime::millis(30).ns()}};
  EXPECT_EQ(samples, want);
}

TEST(EngineSampler, ZeroIntervalOrNullFnUninstalls) {
  Engine engine;
  std::vector<Sample> samples;
  capture_into(engine, SimTime::millis(10), samples);
  engine.set_sampler(SimTime::zero(),
                     [&samples](std::uint64_t, SimTime) {
                       samples.push_back({});
                     });
  engine.schedule_at(SimTime::millis(5), [] {});
  engine.run_until(SimTime::millis(50));
  EXPECT_TRUE(samples.empty());

  capture_into(engine, SimTime::millis(10), samples);
  engine.set_sampler(SimTime::millis(10), nullptr);
  engine.schedule_at(SimTime::millis(55), [] {});
  engine.run_until(SimTime::millis(100));
  EXPECT_TRUE(samples.empty());
}

TEST(EngineProgress, PublishesFinalCountsAfterADrive) {
  Engine engine;
  obs::RunProgress progress;
  engine.set_progress(&progress);
  engine.schedule_at(SimTime::millis(5), [] {});
  engine.schedule_at(SimTime::millis(7), [] {});
  engine.run_until(SimTime::millis(30));
  // now() ends at the last executed event, never at the horizon.
  EXPECT_EQ(progress.events.load(), 2u);
  EXPECT_EQ(progress.sim_time_ns.load(), SimTime::millis(7).ns());
}

TEST(RunProgress, ResetClearsEverything) {
  obs::RunProgress progress;
  progress.events.store(9);
  progress.sim_time_ns.store(9);
  progress.rejoin_p99_ns.store(9);
  progress.active.store(true);
  progress.reset();
  EXPECT_EQ(progress.events.load(), 0u);
  EXPECT_EQ(progress.sim_time_ns.load(), 0);
  EXPECT_EQ(progress.rejoin_p99_ns.load(), -1);
  EXPECT_FALSE(progress.active.load());
}

TEST(EngineProgress, NullSinkIsTheDefaultAndSafe) {
  Engine engine;
  engine.set_progress(nullptr);
  engine.schedule_at(SimTime::millis(1), [] {});
  engine.run();
  EXPECT_EQ(engine.executed(), 1u);
}

}  // namespace
}  // namespace peerscope::sim
