#include "sim/engine.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/progress.hpp"

namespace peerscope::sim {

void Engine::run_until(util::SimTime horizon) {
  const std::uint64_t executed_before = executed_;
  // Callbacks execute from this stack frame, not from their pool node:
  // the node is recycled first, so a callback that schedules new work
  // may land in its own slot.
  alignas(kEventInlineAlign) unsigned char frame[kEventInlineBytes];
  while (!queue_.empty()) {
    if (cancel_ != nullptr && executed_ % kCancelStride == 0 &&
        cancel_->cancelled()) {
      // Publish the work done so far before unwinding: a timed-out
      // run's partial counters still land in the sidecar.
      if (obs::enabled()) {
        obs::counter("sim.events_executed").add(executed_ - executed_before);
      }
      if (progress_ != nullptr) {
        progress_->events.store(executed_, std::memory_order_relaxed);
        progress_->sim_time_ns.store(now_.ns(), std::memory_order_relaxed);
      }
      throw util::Cancelled("simulation cancelled at t=" +
                            std::to_string(now_.seconds()) + "s after " +
                            std::to_string(executed_) + " events");
    }
    // Live progress rides the cancel stride: two relaxed stores per
    // 256 events when a sink is installed, one pointer test when not.
    if (progress_ != nullptr && executed_ % kCancelStride == 0) {
      progress_->events.store(executed_, std::memory_order_relaxed);
      progress_->sim_time_ns.store(now_.ns(), std::memory_order_relaxed);
    }
    if (queue_.min().at > horizon.ns()) break;
    // Fire every grid point strictly before the next event: events at
    // exactly the grid time execute first, then the sample covers them.
    while (sample_interval_ns_ != 0 && next_sample_ns_ <= horizon.ns() &&
           queue_.min().at > next_sample_ns_) {
      const util::SimTime at{next_sample_ns_};
      next_sample_ns_ += sample_interval_ns_;
      sampler_(sample_index_++, at);
    }
    const CalendarQueue::Entry item = queue_.pop_min();
    EventNode& node = pool_[item.node];
    if (node.seq != item.seq || node.ops == nullptr) continue;  // cancelled
    // Move the callback out before invoking: the callback may schedule
    // new events and must be free to reuse this node.
    const EventOps* ops = node.ops;
    ops->transfer(frame, node.storage);
    node.ops = nullptr;
    node.seq = 0;
    pool_.release(item.node);
    --live_;
    now_ = util::SimTime{item.at};
    ++executed_;
    // Deterministic trace checkpoints: the sample points depend only
    // on the executed-event count, so the sampled values — and the
    // sample count — are reproducible for a fixed seed at any pool
    // size. The mask test keeps the traced-off cost to an AND+branch
    // ahead of the tracer's own relaxed load.
    if ((executed_ & (kTraceCheckpointStride - 1)) == 0) {
      PEERSCOPE_TRACE_COUNTER("sim.events_executed",
                              static_cast<std::int64_t>(executed_));
    }
    // Overlap the next event's cold slab fetch with this callback's
    // execution. min() here is the same walk the next iteration would
    // pay anyway (and is cached for it); the hint goes stale only when
    // the callback schedules something even earlier, which costs
    // nothing but the wasted prefetch.
    if (!queue_.empty()) {
      pool_.prefetch(queue_.min().node);
    }
    // Destroy the moved-out callable even when it throws — the same
    // cleanup the old out-of-line std::function got from unwinding.
    struct FrameGuard {
      const EventOps* ops;
      void* p;
      ~FrameGuard() { ops->destroy(p); }
    } guard{ops, frame};
    ops->invoke(frame);
  }
  // A finite horizon defines the run's full grid: fire the points
  // between the last event and the horizon so every series covers the
  // configured duration. An open-ended run() has no such grid end.
  if (sample_interval_ns_ != 0 && horizon < util::SimTime::max()) {
    while (next_sample_ns_ <= horizon.ns()) {
      const util::SimTime at{next_sample_ns_};
      next_sample_ns_ += sample_interval_ns_;
      sampler_(sample_index_++, at);
    }
  }
  // One batched publish per drive, not one per event: the event loop
  // is the simulator's innermost hot path.
  if (obs::enabled()) {
    obs::counter("sim.events_executed").add(executed_ - executed_before);
  }
  if (progress_ != nullptr) {
    progress_->events.store(executed_, std::memory_order_relaxed);
    progress_->sim_time_ns.store(now_.ns(), std::memory_order_relaxed);
  }
}

}  // namespace peerscope::sim
