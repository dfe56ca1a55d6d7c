// Live run progress (DESIGN.md §17).
//
// RunProgress is the one-way publication channel out of a running
// simulation: the engine stores events-executed and sim-time into it
// at the cancel-poll stride (relaxed atomics, a handful of stores per
// 256 events), the swarm adds the discovery rejoin-latency p99 and
// marks the window its engine runs, and the live monitor
// (exp/status.hpp) reads from another thread without touching engine
// state.
#pragma once

#include <atomic>
#include <cstdint>

namespace peerscope::obs {

/// Shared progress snapshot for one run attempt. All-atomic so the
/// publishing engine thread and any number of observer threads never
/// need a lock; values are monotone within an attempt and reset()
/// between attempts.
struct RunProgress {
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::int64_t> sim_time_ns{0};
  /// Cumulative p99 of p2p.discovery rejoin latency, ns; -1 until the
  /// first rejoin sample lands.
  std::atomic<std::int64_t> rejoin_p99_ns{-1};
  /// True while an attempt is between engine start and finish;
  /// observers must ignore the other fields when false.
  std::atomic<bool> active{false};

  void reset() noexcept {
    events.store(0, std::memory_order_relaxed);
    sim_time_ns.store(0, std::memory_order_relaxed);
    rejoin_p99_ns.store(-1, std::memory_order_relaxed);
    active.store(false, std::memory_order_relaxed);
  }
};

}  // namespace peerscope::obs
