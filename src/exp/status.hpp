// The live monitor: one wall-clock sampler per supervised batch
// (DESIGN.md §17).
//
// A 181k-peer batch is a black box between launch and exit unless the
// supervisor publishes where it is, and a wedged or starving run needs
// someone to notice. LiveMonitor owns one thread that, every kPoll,
// reads each run's live state once and derives one window per run:
// events/s, sim seconds per wall second, and how long sim time has
// been frozen. That window feeds both consumers:
//
//   - status.json (`peerscope.status/1`), atomically renamed over the
//     status file (non-durable: a stale status after a crash is
//     harmless), so `peerscope watch` never reads a torn document;
//   - the declarative SLOs, whose sustained violation cancels the
//     attempt (the supervisor reports "slo violation: ...", exit 10).
//
// The window re-primes whenever a run's attempt number changes or its
// RunProgress::active flag flips, so it never spans two attempts or
// the gap between them. Wall clock, not the sim-time series grid: a
// stalled run reaches no grid point, and the grid is off unless
// --series is set.
//
// The task threads never block for the monitor: each LiveRun is
// all-atomic. Only attaching and detaching an attempt's cancel token
// take the monitor's mutex, so a trip never touches a token whose
// attempt has returned.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/progress.hpp"
#include "util/cancel.hpp"
#include "util/mutex.hpp"

namespace peerscope::exp {

inline constexpr const char* kStatusSchema = "peerscope.status/1";

/// Declarative SLOs; a zero threshold disables that objective. Floor
/// and ceiling violations must persist for LiveMonitor::kSustain
/// consecutive windows before tripping (one slow window is noise); a
/// sim-time stall trips as soon as no event has advanced sim time for
/// `stall_window_s` wall seconds, because the engine publishes
/// progress every 256 events even when sim time crawls — silence that
/// long means the run is wedged.
struct SloSpec {
  double events_per_s_floor = 0;
  double stall_window_s = 0;
  std::int64_t rejoin_p99_ceiling_ns = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return events_per_s_floor > 0 || stall_window_s > 0 ||
           rejoin_p99_ceiling_ns > 0;
  }
};

/// One run's live, lock-free state. The strings are immutable after
/// construction; everything mutable is atomic, so the monitor thread
/// reads concurrently with the task thread without a lock (and under
/// TSan).
struct LiveRun {
  /// state values: kPending / kRunning, or static_cast<int> of the
  /// terminal exp::RunState once the attempt chain resolves.
  static constexpr int kPending = -1;
  static constexpr int kRunning = -2;

  LiveRun(std::string spec_id, double run_duration_s, std::size_t slot)
      : spec(std::move(spec_id)), duration_s(run_duration_s), index(slot) {}

  const std::string spec;
  const double duration_s;
  const std::size_t index;  // position in the monitor's run list
  obs::RunProgress progress;
  std::atomic<int> state{kPending};
  std::atomic<int> attempts{0};
};

/// The batch's one live sampler. Add every run before start(); the
/// LiveRun references stay stable (deque) for the batch's lifetime.
class LiveMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  /// Sampling period of the monitor thread.
  static constexpr std::chrono::milliseconds kPoll{200};
  /// Consecutive violating windows before a floor/ceiling SLO trips.
  static constexpr int kSustain = 3;

  /// An empty `status_path` publishes no status.json; a disabled `slo`
  /// judges nothing.
  LiveMonitor(std::filesystem::path status_path, SloSpec slo);
  ~LiveMonitor();

  LiveMonitor(const LiveMonitor&) = delete;
  LiveMonitor& operator=(const LiveMonitor&) = delete;

  /// Registers a run; call only before start().
  LiveRun& add_run(std::string spec_id, double run_duration_s);

  /// Takes the first sample and starts the sampling thread.
  void start();

  /// Wakes and joins the thread at once, then writes the final "done"
  /// snapshot. Idempotent; the destructor calls it.
  void stop();

  /// Arms the SLOs on `live`'s current attempt: a trip requests
  /// `token`. The token must stay alive until detach().
  void attach(const LiveRun& live, util::CancelToken& token);

  /// Disarms the attempt and returns the violation that tripped it,
  /// or an empty string. After it returns the monitor holds no
  /// reference to the token.
  [[nodiscard]] std::string detach(const LiveRun& live);

  /// One tick: reads every run once, advances its window, checks the
  /// SLOs of attached attempts, and rewrites status.json. The sampling
  /// thread calls it every kPoll; tests drive it with synthetic time
  /// points (never while the thread runs).
  void sample(Clock::time_point now);

 private:
  /// One run's wall-clock window; touched by sample() alone.
  struct Window {
    int attempt = -1;  // -1 until the first sample
    bool active = false;
    bool measured = false;  // the latest sample closed a full window
    bool tripped = false;   // this attempt already tripped an SLO
    std::uint64_t events = 0;
    std::int64_t sim_ns = 0;
    Clock::time_point at{};
    Clock::time_point advanced_at{};  // last sample that saw sim time move
    double events_per_s = 0;
    double sim_rate = 0;  // sim seconds per wall second
    int rate_strikes = 0;
    int rejoin_strikes = 0;
  };
  /// The attempt a trip may cancel, and what tripped it.
  struct Arm {
    util::CancelToken* token = nullptr;
    std::string violation;
  };

  void run();
  /// sample() with the document phase; `warn` reports a failed write
  /// (start/stop) instead of leaving it to the next tick.
  void tick(Clock::time_point now, std::string_view phase, bool warn);
  void advance(const LiveRun& live, Window& window, Clock::time_point now);
  void check(const LiveRun& live, Window& window, Arm& arm,
             Clock::time_point now) PS_REQUIRES(mutex_);
  void trip(Window& window, Arm& arm, std::string reason) PS_REQUIRES(mutex_);
  [[nodiscard]] std::string render(std::string_view phase) const;

  const std::filesystem::path status_path_;
  const SloSpec slo_;
  std::deque<LiveRun> runs_;
  std::vector<Window> windows_;
  util::Mutex mutex_;
  util::CondVar wake_;
  std::vector<Arm> arms_ PS_GUARDED_BY(mutex_);
  bool stopping_ PS_GUARDED_BY(mutex_) = false;
  bool started_ = false;
  std::thread thread_;
};

/// Parsed view of one status.json document (the watch subcommand and
/// tests read through this instead of scraping JSON).
struct StatusRunView {
  std::string spec;
  std::string state;
  int attempts = 0;
  std::uint64_t events = 0;
  double sim_time_s = 0;
  double events_per_s = 0;
  /// Estimated wall seconds to finish; -1 when unknown (not running,
  /// or no sim-rate sample yet).
  double eta_s = -1;
};

struct StatusView {
  std::string phase;  // "running" | "done"
  std::vector<StatusRunView> runs;
};

/// Parses a document written by LiveMonitor with the shared strict
/// JSON reader. Returns nullopt when the document does not parse, the
/// schema is foreign, or a field is missing or mistyped.
[[nodiscard]] std::optional<StatusView> parse_status(std::string_view json);

}  // namespace peerscope::exp
