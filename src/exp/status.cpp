#include "exp/status.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "exp/supervisor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace peerscope::exp {

namespace {

std::string fixed(double value, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

const char* state_label(int state) {
  switch (state) {
    case LiveRun::kPending:
      return "pending";
    case LiveRun::kRunning:
      return "running";
    default:
      return to_string(static_cast<RunState>(state));
  }
}

}  // namespace

LiveMonitor::LiveMonitor(std::filesystem::path status_path, SloSpec slo)
    : status_path_(std::move(status_path)), slo_(slo) {}

LiveMonitor::~LiveMonitor() { stop(); }

LiveRun& LiveMonitor::add_run(std::string spec_id, double run_duration_s) {
  if (started_) {
    throw std::logic_error("LiveMonitor: add_run after start");
  }
  windows_.emplace_back();
  {
    const util::MutexLock lock{mutex_};
    arms_.emplace_back();
  }
  return runs_.emplace_back(std::move(spec_id), run_duration_s,
                            runs_.size());
}

void LiveMonitor::start() {
  if (started_) return;
  started_ = true;
  tick(Clock::now(), "running", /*warn=*/true);
  thread_ = std::thread([this] { run(); });
}

void LiveMonitor::stop() {
  if (!started_) return;
  {
    const util::MutexLock lock{mutex_};
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
  tick(Clock::now(), "done", /*warn=*/true);
}

void LiveMonitor::attach(const LiveRun& live, util::CancelToken& token) {
  const util::MutexLock lock{mutex_};
  arms_[live.index] = Arm{&token, {}};
}

std::string LiveMonitor::detach(const LiveRun& live) {
  const util::MutexLock lock{mutex_};
  Arm& arm = arms_[live.index];
  arm.token = nullptr;
  return std::exchange(arm.violation, {});
}

void LiveMonitor::run() {
  for (;;) {
    const auto due = Clock::now() + kPoll;
    {
      const util::MutexLock lock{mutex_};
      while (!stopping_ && Clock::now() < due) wake_.wait_until(mutex_, due);
      if (stopping_) return;
    }
    sample(Clock::now());
  }
}

void LiveMonitor::sample(Clock::time_point now) {
  tick(now, "running", /*warn=*/false);
}

void LiveMonitor::tick(Clock::time_point now, std::string_view phase,
                       bool warn) {
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    advance(runs_[i], windows_[i], now);
  }
  if (slo_.enabled()) {
    const util::MutexLock lock{mutex_};
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      check(runs_[i], windows_[i], arms_[i], now);
    }
  }
  if (status_path_.empty()) return;
  try {
    util::write_file_atomic(status_path_, render(phase), /*durable=*/false);
  } catch (const std::exception& error) {
    // Status is advisory: a broken status path must not kill the
    // batch. Mid-run failures (io_faults, full disk) retry next tick.
    if (warn) {
      std::cerr << "status: cannot write " << status_path_.string() << ": "
                << error.what() << '\n';
    }
  }
}

void LiveMonitor::advance(const LiveRun& live, Window& window,
                          Clock::time_point now) {
  const int attempt = live.attempts.load(std::memory_order_relaxed);
  const bool active = live.progress.active.load(std::memory_order_acquire);
  const std::uint64_t events =
      live.progress.events.load(std::memory_order_relaxed);
  const std::int64_t sim_ns =
      live.progress.sim_time_ns.load(std::memory_order_relaxed);
  // A new attempt, an active flip, or a counter stepping backwards
  // (a reset read mid-way) starts a fresh window.
  const bool same_window = attempt == window.attempt &&
                           active == window.active &&
                           events >= window.events && sim_ns >= window.sim_ns;
  if (!same_window) {
    window = Window{};
    window.attempt = attempt;
    window.active = active;
    window.advanced_at = now;
  } else {
    const double dt = std::chrono::duration<double>(now - window.at).count();
    window.measured = dt > 0;
    if (window.measured) {
      window.events_per_s = static_cast<double>(events - window.events) / dt;
      window.sim_rate = static_cast<double>(sim_ns - window.sim_ns) / 1e9 / dt;
    }
    if (sim_ns > window.sim_ns) window.advanced_at = now;
  }
  window.events = events;
  window.sim_ns = sim_ns;
  window.at = now;
}

void LiveMonitor::check(const LiveRun& live, Window& window, Arm& arm,
                        Clock::time_point now) {
  // Judge only a live attempt whose token is attached, on a full
  // window, and at most once.
  if (arm.token == nullptr || !window.active || !window.measured ||
      window.tripped) {
    return;
  }

  // Sim-time stall: the engine publishes progress every 256 events,
  // so sim time frozen across the window means no event is landing.
  if (slo_.stall_window_s > 0) {
    const double stalled_s =
        std::chrono::duration<double>(now - window.advanced_at).count();
    if (stalled_s >= slo_.stall_window_s) {
      PEERSCOPE_METRIC_INC("watchdog.violations");
      trip(window, arm,
           "sim time stalled at " + std::to_string(window.sim_ns) +
               "ns for " + fixed(stalled_s, 0) + "s");
      return;
    }
  }

  // Throughput floor, on per-window deltas so a slow start does not
  // poison the whole run's average.
  if (slo_.events_per_s_floor > 0) {
    if (window.events_per_s < slo_.events_per_s_floor) {
      PEERSCOPE_METRIC_INC("watchdog.violations");
      if (++window.rate_strikes >= kSustain) {
        trip(window, arm,
             "events/s " + fixed(window.events_per_s, 0) +
                 " below floor " + fixed(slo_.events_per_s_floor, 0) +
                 " for " + std::to_string(window.rate_strikes) + " windows");
        return;
      }
    } else {
      window.rate_strikes = 0;
    }
  }

  // Rejoin-latency ceiling (cumulative p99 published by the swarm's
  // sampling hook; -1 until discovery has produced a rejoin).
  const std::int64_t p99 =
      live.progress.rejoin_p99_ns.load(std::memory_order_relaxed);
  if (slo_.rejoin_p99_ceiling_ns > 0 && p99 >= 0) {
    if (p99 > slo_.rejoin_p99_ceiling_ns) {
      PEERSCOPE_METRIC_INC("watchdog.violations");
      if (++window.rejoin_strikes >= kSustain) {
        trip(window, arm,
             "discovery rejoin p99 " + std::to_string(p99) +
                 "ns above ceiling " +
                 std::to_string(slo_.rejoin_p99_ceiling_ns) + "ns for " +
                 std::to_string(window.rejoin_strikes) + " windows");
      }
    } else {
      window.rejoin_strikes = 0;
    }
  }
}

void LiveMonitor::trip(Window& window, Arm& arm, std::string reason) {
  window.tripped = true;
  arm.violation = std::move(reason);
  PEERSCOPE_TRACE_INSTANT("watchdog.slo_violation");
  PEERSCOPE_METRIC_INC("watchdog.trips");
  // Rings are per-thread and this thread outlives the run: flush now
  // so the verdict reaches the batch timeline while the run unwinds.
  obs::trace_flush();
  arm.token->request();
}

std::string LiveMonitor::render(std::string_view phase) const {
  std::string out = "{\"schema\":";
  util::json::append_string(out, kStatusSchema);
  out += ",\"phase\":";
  util::json::append_string(out, phase);
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const LiveRun& live = runs_[i];
    const Window& window = windows_[i];
    const int state = live.state.load(std::memory_order_acquire);
    double eta_s = -1;
    if (state == LiveRun::kRunning && window.sim_rate > 0 &&
        live.duration_s > 0) {
      const double remaining =
          live.duration_s - static_cast<double>(window.sim_ns) / 1e9;
      eta_s = remaining > 0 ? remaining / window.sim_rate : 0;
    }

    if (i > 0) out += ',';
    out += "{\"spec\":";
    util::json::append_string(out, live.spec);
    out += ",\"state\":";
    util::json::append_string(out, state_label(state));
    out += ",\"attempts\":" + std::to_string(window.attempt);
    out += ",\"events\":" + std::to_string(window.events);
    out += ",\"sim_time_s\":" +
           fixed(static_cast<double>(window.sim_ns) / 1e9, 3);
    out += ",\"events_per_s\":" + fixed(window.events_per_s, 3);
    out += ",\"eta_s\":" + fixed(eta_s, 3);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::optional<StatusView> parse_status(std::string_view json) {
  const util::json::Value doc = util::json::parse_or_null(json);
  const auto phase = doc["phase"].string();
  const util::json::Value& runs = doc["runs"];
  if (doc["schema"].string() != kStatusSchema || !phase ||
      runs.kind() != util::json::Value::Kind::kArray) {
    return std::nullopt;
  }
  StatusView view;
  view.phase = *phase;
  for (const util::json::Value& entry : runs.items()) {
    const auto spec = entry["spec"].string();
    const auto state = entry["state"].string();
    const auto attempts = entry["attempts"].integer<int>();
    const auto events = entry["events"].integer<std::uint64_t>();
    const auto sim_time_s = entry["sim_time_s"].number();
    const auto events_per_s = entry["events_per_s"].number();
    const auto eta_s = entry["eta_s"].number();
    if (!spec || !state || !attempts || !events || !sim_time_s ||
        !events_per_s || !eta_s) {
      return std::nullopt;
    }
    view.runs.push_back(StatusRunView{std::string{*spec},
                                      std::string{*state}, *attempts,
                                      *events, *sim_time_s, *events_per_s,
                                      *eta_s});
  }
  return view;
}

}  // namespace peerscope::exp
