// One telemetry session (DESIGN.md §9): the single owner of the
// metrics registry, the event recorder and the time-series recorder a
// process installs, and of the sidecars written from them.
//
// The CLI builds one from --metrics/--trace/--series/--series-interval
// and every bench builds one (through bench::Session) from the
// PEERSCOPE_BENCH_* variables. Only the recorders that were asked for
// are installed, so an invocation without telemetry keeps the no-op
// fast path and stays byte-identical to an uninstrumented build.
//
// finish() tears down in a fixed order — series, then tracer, then
// registry — writing each sidecar right after its uninstall. The
// registry goes last so the series writer's obs.series.* counters and
// the tracer's final-flush drop accounting (obs.trace_events_dropped)
// still land in metrics.json. Every write is atomic, and runs even
// after a runtime error: the failed invocation is exactly the one
// worth profiling.
#pragma once

#include <filesystem>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/sim_time.hpp"

namespace peerscope::obs {

struct TelemetryConfig {
  /// Sidecar paths; a non-empty path installs that recorder and
  /// writes its file at finish().
  std::filesystem::path metrics_path;
  std::filesystem::path trace_path;
  std::filesystem::path series_path;
  /// Install the registry / event recorder even with no sidecar path,
  /// for a caller that reads the final snapshots itself.
  bool metrics = false;
  bool trace = false;
  /// Sim-time sampling grid of the series recorder.
  util::SimTime series_interval = util::SimTime::seconds(10);
};

/// What finish() leaves behind: the final snapshots (empty for a
/// recorder that was not installed) and whether a sidecar write failed.
struct TelemetryReport {
  MetricsSnapshot metrics;
  TraceSnapshot trace;
  bool write_failed = false;

  /// The exit code once the sidecars are written: a failed write turns
  /// success into 1 and leaves an earlier failure's code alone.
  [[nodiscard]] int exit_code(int code) const noexcept {
    return write_failed && code == 0 ? 1 : code;
  }
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config);
  /// finish()es a session nobody finished.
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Uninstalls and writes series, trace, then metrics, reporting each
  /// write ("<kind>: wrote PATH" or the error) on stderr. Recording
  /// threads must be quiesced. Later calls return an empty report.
  TelemetryReport finish();

 private:
  TelemetryConfig config_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<TraceRecorder> tracer_;
  std::unique_ptr<TimeseriesRecorder> series_;
};

}  // namespace peerscope::obs
