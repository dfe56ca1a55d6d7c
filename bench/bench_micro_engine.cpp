// bench_micro_engine — event-core throughput, isolated from the rest
// of the simulator.
//
// Replays the same synthetic swarm-shaped workload (50k peers by
// default; the paper-true 181,729-peer swarm under
// PEERSCOPE_BENCH_FULL_SCALE) through two schedulers and prints
// events/sec for each:
//
//   legacy-heap    the pre-calendar engine verbatim: std::priority_queue
//                  of (at, seq) items + std::unordered_map<seq,
//                  std::function> for callback storage and cancellation
//   calendar-soa   sim::Engine today: calendar queue + slab event pool
//                  with inline callable storage
//
// The workload mimics what the swarm actually schedules: per-peer tick
// chains, fan-out request events with 24+-byte captures (beyond
// std::function's small-object buffer, so the legacy path pays the
// same per-event allocation the real swarm did), and a cancellation
// stream. The committed perf trajectory pins the calendar-soa number;
// the printed speedup documents the engine-rework gain (>=5x gate,
// checked in the PR, advisory here).
//
// The bench session wraps only the calendar-soa run, so the
// PEERSCOPE_BENCH_JSON summary the trajectory gate reads (and any
// metrics/trace/series sidecar) describes the shipping engine alone.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace {

using peerscope::util::Rng;
using peerscope::util::SimTime;

// The pre-change scheduler, embedded verbatim (minus obs publishing,
// which the plain bench path never enabled anyway) so the comparison
// survives the old code's deletion from src/sim.
class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  class Handle {
   public:
    Handle() = default;

   private:
    friend class LegacyEngine;
    explicit Handle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
  };

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  Handle schedule_at(SimTime at, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(Item{at, seq});
    live_.emplace(seq, std::move(cb));
    return Handle{seq};
  }

  Handle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool cancel(Handle handle) {
    if (handle.id_ == 0) return false;
    return live_.erase(handle.id_) > 0;
  }

  void run_until(SimTime horizon) {
    while (!queue_.empty()) {
      const Item item = queue_.top();
      if (item.at > horizon) break;
      queue_.pop();
      const auto it = live_.find(item.seq);
      if (it == live_.end()) continue;  // cancelled
      Callback cb = std::move(it->second);
      live_.erase(it);
      now_ = item.at;
      ++executed_;
      cb();
    }
  }

 private:
  struct Item {
    SimTime at;
    std::uint64_t seq;
    bool operator<(const Item& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  SimTime now_{0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Item> queue_;
  std::unordered_map<std::uint64_t, Callback> live_;
};

// Reference spec: every peer runs a 100 ms tick chain; each tick
// mutates per-peer state and fans out two request events with
// jittered sub-second delays, one of which is sometimes cancelled —
// the pending-set size and capture shapes of a real swarm run,
// without the swarm. The default 50k-peer swarm keeps the pending set
// at the scale the engine rework targets (a 2k-peer set fits in L2
// either way and understates the gap); PEERSCOPE_BENCH_FULL_SCALE
// runs the paper-true Asian-peak swarm.
struct WorkloadSpec {
  int peers = 50'000;
  SimTime horizon = SimTime::seconds(20);
  std::uint64_t seed = 42;
};

struct WorkloadResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  [[nodiscard]] double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

template <class EngineT>
class Workload {
 public:
  explicit Workload(const WorkloadSpec& spec)
      : spec_(spec), rng_(spec.seed), state_(
            static_cast<std::size_t>(spec.peers), 0) {}

  WorkloadResult run() {
    for (int p = 0; p < spec_.peers; ++p) {
      const auto start =
          SimTime::millis(static_cast<std::int64_t>(rng_.below(100)) + 1);
      const auto peer = static_cast<std::size_t>(p);
      engine_.schedule_at(start, [this, peer] { tick(peer); });
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine_.run_until(spec_.horizon);
    const auto t1 = std::chrono::steady_clock::now();
    WorkloadResult out;
    out.events = engine_.executed();
    out.wall_s = std::chrono::duration<double>(t1 - t0).count();
    return out;
  }

 private:
  void tick(std::size_t peer) {
    state_[peer] =
        state_[peer] * 6364136223846793005ULL + 1442695040888963407ULL;
    // Two fan-out requests per tick. The capture (this + peer + a
    // deadline) tops std::function's small-object buffer, as the real
    // swarm's completion callbacks do.
    for (int k = 0; k < 2; ++k) {
      const auto delay =
          SimTime::millis(static_cast<std::int64_t>(rng_.below(400)) + 10);
      const SimTime deadline = engine_.now() + delay + SimTime::seconds(1);
      auto handle = engine_.schedule_after(
          delay, [this, peer, deadline] { complete(peer, deadline); });
      // A slice of requests is superseded before it fires (partner
      // drop, duplicate chunk): the cancellation path is hot too.
      if (rng_.chance(0.10)) engine_.cancel(handle);
    }
    if (engine_.now() + kPeriod <= spec_.horizon) {
      engine_.schedule_after(kPeriod, [this, peer] { tick(peer); });
    }
  }

  void complete(std::size_t peer, SimTime deadline) {
    state_[peer] ^= static_cast<std::uint64_t>(deadline.ns());
  }

  static constexpr SimTime kPeriod = SimTime::millis(100);

  WorkloadSpec spec_;
  EngineT engine_;
  Rng rng_;
  std::vector<std::uint64_t> state_;
};

void print_row(const char* name, const WorkloadResult& result) {
  std::printf("  %-14s %12llu %9.3f %14.0f\n", name,
              static_cast<unsigned long long>(result.events), result.wall_s,
              result.events_per_s());
}

}  // namespace

int main() {
  using namespace peerscope;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  WorkloadSpec spec;
  spec.seed = cfg.seed;
  if (cfg.full_scale) {
    // The paper's Asian-peak PPLive swarm (Table II), no count scaling.
    spec.peers = 181'729;
    spec.horizon = SimTime::seconds(10);
  }

  std::printf(
      "bench_micro_engine -- event-core throughput (%s, %d peers, "
      "%.0fs horizon)\n",
      cfg.full_scale ? "paper-true Asian-peak swarm" : "reference spec",
      spec.peers, spec.horizon.seconds());
  std::printf("  %-14s %12s %9s %14s\n", "scheduler", "events", "wall_s",
              "events/s");

  // Legacy first, current second, so the numbers the session
  // captures (events executed + wall) describe the shipping engine.
  Workload<LegacyEngine> legacy{spec};
  const WorkloadResult before = legacy.run();
  print_row("legacy-heap", before);

  WorkloadResult after;
  {
    bench::Session session{"bench_micro_engine"};
    Workload<sim::Engine> current{spec};
    after = current.run();
  }
  print_row("calendar-soa", after);

  const double speedup =
      before.events_per_s() > 0 ? after.events_per_s() / before.events_per_s()
                                : 0.0;
  const bool identical = before.events == after.events;
  std::printf("  speedup: %.2fx  %s (engine-rework gate: >=5x)\n", speedup,
              speedup >= 5.0 ? "[ok]" : "[LOW]");
  std::printf("  identical event counts: %s\n",
              identical ? "[ok]" : "[FAIL]");
  return identical ? 0 : 1;
}
