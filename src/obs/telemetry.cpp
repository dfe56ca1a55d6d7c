#include "obs/telemetry.hpp"

#include <exception>
#include <iostream>
#include <utility>

#include "obs/json.hpp"

namespace peerscope::obs {

namespace {

/// Runs one sidecar write and reports it on stderr; a throw sets
/// `failed` instead of escaping, so the remaining sidecars still land.
template <class Write>
void write_sidecar(const char* kind, const std::filesystem::path& path,
                   bool& failed, Write&& write) {
  if (path.empty()) return;
  try {
    std::forward<Write>(write)();
    std::cerr << kind << ": wrote " << path.string() << '\n';
  } catch (const std::exception& error) {
    std::cerr << kind << ": " << error.what() << '\n';
    failed = true;
  }
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config) : config_(std::move(config)) {
  if (config_.metrics || !config_.metrics_path.empty()) {
    registry_ = std::make_unique<MetricsRegistry>();
    install(registry_.get());
  }
  if (config_.trace || !config_.trace_path.empty()) {
    tracer_ = std::make_unique<TraceRecorder>();
    install_tracer(tracer_.get());
  }
  if (!config_.series_path.empty()) {
    series_ = std::make_unique<TimeseriesRecorder>(config_.series_interval);
    install_series(series_.get());
  }
}

Telemetry::~Telemetry() { (void)finish(); }

TelemetryReport Telemetry::finish() {
  TelemetryReport report;
  if (series_) {
    install_series(nullptr);
    write_sidecar("series", config_.series_path, report.write_failed, [&] {
      write_series(config_.series_path, series_->snapshot());
    });
    series_.reset();
  }
  if (tracer_) {
    install_tracer(nullptr);
    report.trace = tracer_->snapshot();
    write_sidecar("trace", config_.trace_path, report.write_failed, [&] {
      write_trace_json(config_.trace_path, report.trace);
    });
    tracer_.reset();
  }
  if (registry_) {
    install(nullptr);
    report.metrics = registry_->snapshot();
    write_sidecar("metrics", config_.metrics_path, report.write_failed, [&] {
      write_metrics_json(config_.metrics_path, report.metrics);
    });
    registry_.reset();
  }
  return report;
}

}  // namespace peerscope::obs
