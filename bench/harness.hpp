// Shared bench-harness plumbing: runs the three applications at the
// default reproduction scale and provides the paper's published values
// so every binary prints paper-vs-measured rows.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/resource.h>

#include "aware/export.hpp"
#include "aware/report.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_summary.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/parse_int.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::bench {

namespace detail {

/// The integer knob `var`: `fallback` when unset, else a whole base-10
/// number in [1, max] (util::parse_int). Anything else prints a usage
/// line and exits 2 — a typo ("30x", "-5", "banana") must not become a
/// run at a silently-mangled scale.
template <class T>
T env_int_or_die(const char* var, T fallback, std::type_identity_t<T> max) {
  const char* text = std::getenv(var);
  if (text == nullptr) return fallback;
  const auto value = util::parse_int<T>(text, 1, max);
  if (!value) {
    std::cerr << "invalid " << var << "=\"" << text << "\"\n"
              << "usage: " << var
              << " must be a positive base-10 integer <= " << max << '\n';
    std::exit(2);
  }
  return *value;
}

inline std::filesystem::path env_path(const char* var) {
  const char* value = std::getenv(var);
  return value != nullptr ? value : "";
}

}  // namespace detail

/// Default reproduction scale (DESIGN.md §6): 300 simulated seconds,
/// profile-default populations. Override via environment for quick
/// runs: PEERSCOPE_BENCH_SECONDS, PEERSCOPE_BENCH_SEED; set
/// PEERSCOPE_BENCH_OUTDIR to archive machine-readable CSVs of every
/// regenerated table/figure; set PEERSCOPE_BENCH_FULL_SCALE (any
/// value) to run each application at the paper's full observed-peer
/// count (Table II: 181,729 / 4,057 / 550) with no count scaling.
/// Malformed values abort with a usage message (exit 2) instead of
/// running at a silently-mangled scale.
struct BenchConfig {
  std::int64_t seconds = 300;
  std::uint64_t seed = 42;
  bool full_scale = false;
  std::optional<std::filesystem::path> outdir;

  static BenchConfig from_env() {
    BenchConfig cfg;
    cfg.seconds = detail::env_int_or_die("PEERSCOPE_BENCH_SECONDS",
                                         cfg.seconds, exp::kMaxRunSeconds);
    cfg.full_scale = std::getenv("PEERSCOPE_BENCH_FULL_SCALE") != nullptr;
    cfg.seed = detail::env_int_or_die(
        "PEERSCOPE_BENCH_SEED", cfg.seed,
        std::numeric_limits<std::uint64_t>::max());
    if (const char* s = std::getenv("PEERSCOPE_BENCH_OUTDIR")) {
      cfg.outdir = s;
      std::filesystem::create_directories(*cfg.outdir);
    }
    return cfg;
  }
};

/// The bench telemetry hooks, all on one obs::Telemetry. Construct one
/// `bench::Session session{"name"};` at the top of a bench main:
///
///   PEERSCOPE_BENCH_METRICS=PATH  metrics.json (peerscope.metrics/1)
///   PEERSCOPE_BENCH_TRACE=PATH    trace.json (peerscope.trace/1)
///   PEERSCOPE_BENCH_SERIES=PATH   PSTS series sidecar, one interval per
///                                 PEERSCOPE_BENCH_SERIES_SECONDS
///                                 simulated seconds (default 10)
///   PEERSCOPE_BENCH_JSON=PATH     performance summary (peerscope.bench/2)
///
/// Every file is written atomically when the session ends. With none
/// of the variables set nothing is installed, and the bench output is
/// byte-identical to an uninstrumented build.
///
/// The JSON summary is rendered from the same final snapshots the
/// sidecars are written from, so JSON asks for the registry and the
/// event recorder even when no sidecar path does. It carries the wall
/// time from construction to destruction (stopped before any sidecar
/// write) and the peak RSS at that point, sim.events_executed and
/// events/s, and a `phases` array: one row per traced span path —
/// count, total wall ns and self wall ns (total minus directly nested
/// children), sorted by path — computed with the obs::attribute_spans
/// pass `peerscope trace-summary` uses. That is what lets the CI
/// trajectory gate localize a wall-time regression to a phase instead
/// of just flagging the end-to-end number.
class Session {
 public:
  explicit Session(std::string name)
      : name_(std::move(name)),
        json_path_(detail::env_path("PEERSCOPE_BENCH_JSON")),
        telemetry_(telemetry_config(!json_path_.empty())) {}

  ~Session() {
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started_)
                              .count();
    ::rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const obs::TelemetryReport report = telemetry_.finish();
    if (json_path_.empty()) return;

    const auto events_it = report.metrics.counters.find("sim.events_executed");
    const std::uint64_t events =
        events_it != report.metrics.counters.end() ? events_it->second : 0;
    std::vector<obs::SpanAttribution> phases =
        obs::attribute_spans(report.trace.events);
    std::sort(phases.begin(), phases.end(),
              [](const obs::SpanAttribution& a,
                 const obs::SpanAttribution& b) { return a.path < b.path; });
    std::ostringstream out;
    out << "{\"schema\":\"peerscope.bench/2\",\"bench\":"
        << util::json::quote(name_) << ",\"wall_s\":" << wall_s
        << ",\"events_executed\":" << events << ",\"events_per_s\":"
        << (wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0)
        << ",\"peak_rss_kb\":" << usage.ru_maxrss << ",\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const obs::SpanAttribution& row = phases[i];
      if (i != 0) out << ',';
      out << "{\"path\":" << util::json::quote(row.path)
          << ",\"count\":" << row.count
          << ",\"total_ns\":" << row.total_ns
          << ",\"self_ns\":" << row.self_ns << '}';
    }
    out << "]}\n";
    try {
      util::write_file_atomic(json_path_, out.str());
      std::cerr << "bench-json: wrote " << json_path_.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "bench-json: " << error.what() << '\n';
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  static obs::TelemetryConfig telemetry_config(bool json) {
    obs::TelemetryConfig config;
    config.metrics = json;
    config.trace = json;
    config.metrics_path = detail::env_path("PEERSCOPE_BENCH_METRICS");
    config.trace_path = detail::env_path("PEERSCOPE_BENCH_TRACE");
    config.series_path = detail::env_path("PEERSCOPE_BENCH_SERIES");
    if (!config.series_path.empty()) {
      config.series_interval =
          util::SimTime::seconds(detail::env_int_or_die(
              "PEERSCOPE_BENCH_SERIES_SECONDS", std::int64_t{10},
              exp::kMaxRunSeconds));
    }
    return config;
  }

  std::string name_;
  std::filesystem::path json_path_;
  obs::Telemetry telemetry_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

inline std::string fmt(double v, int precision = 1) {
  return util::TextTable::num(v, precision);
}

inline std::string fmt_opt(const std::optional<double>& v,
                           int precision = 1) {
  return v ? fmt(*v, precision) : "-";
}

// ----------------------------------------------------------------------
// Published values (the paper's tables), for side-by-side comparison.

/// Table II row.
struct PaperSummary {
  const char* app;
  double rx_mean, rx_max, tx_mean, tx_max;
  double peers_mean, peers_max;
  double contrib_rx_mean, contrib_rx_max;
  double contrib_tx_mean, contrib_tx_max;
  double observed_total;
};

inline constexpr PaperSummary kPaperTable2[] = {
    {"PPLive", 552, 934, 3384, 11818, 23101, 39797, 391, 841, 1025, 2570,
     181729},
    {"SopCast", 449, 542, 293, 1070, 776, 1233, 139, 229, 152, 243, 4057},
    {"TVAnts", 419, 478, 464, 1001, 229, 270, 58, 90, 75, 118, 550},
};

/// Table III row.
struct PaperSelfBias {
  const char* app;
  double contrib_peer_pct, contrib_bytes_pct;
  double all_peer_pct, all_bytes_pct;
};

inline constexpr PaperSelfBias kPaperTable3[] = {
    {"PPLive", 0.95, 3.54, 0.10, 3.33},
    {"SopCast", 10.25, 17.71, 4.60, 19.45},
    {"TVAnts", 29.82, 56.31, 15.56, 56.06},
};

/// Table IV cell: {B'D, P'D, BD, PD, B'U, P'U, BU, PU}; negative means
/// the paper prints "-".
struct PaperAwareness {
  const char* metric;
  const char* app;
  double bpd, ppd, bd, pd;
  double bpu, ppu, bu, pu;
};

inline constexpr double kDash = -1.0;

inline constexpr PaperAwareness kPaperTable4[] = {
    {"BW", "PPLive", 95.9, 85.9, 95.6, 86.1, kDash, kDash, kDash, kDash},
    {"BW", "SopCast", 98.2, 83.3, 98.5, 85.3, kDash, kDash, kDash, kDash},
    {"BW", "TVAnts", 96.5, 83.2, 98.2, 89.6, kDash, kDash, kDash, kDash},
    {"AS", "PPLive", 6.5, 0.6, 12.8, 1.3, 0.8, 0.2, 1.8, 0.5},
    {"AS", "SopCast", 0.6, 0.7, 3.5, 3.9, 1.7, 0.7, 6.4, 3.9},
    {"AS", "TVAnts", 7.3, 3.3, 32.0, 13.5, 11.6, 1.8, 30.1, 9.6},
    {"CC", "PPLive", 6.5, 0.6, 13.1, 1.4, 1.1, 0.3, 2.1, 0.6},
    {"CC", "SopCast", 0.6, 0.8, 4.0, 4.4, 1.7, 0.8, 7.2, 4.4},
    {"CC", "TVAnts", 7.6, 4.0, 37.9, 16.3, 14.3, 3.1, 37.7, 12.5},
    {"NET", "PPLive", kDash, kDash, 9.9, 0.8, kDash, kDash, 1.4, 0.3},
    {"NET", "SopCast", kDash, kDash, 2.0, 2.6, kDash, kDash, 3.5, 2.6},
    {"NET", "TVAnts", kDash, kDash, 18.1, 6.7, kDash, kDash, 18.1, 5.4},
    {"HOP", "PPLive", 42.2, 41.1, 51.4, 42.4, 30.4, 40.4, 31.7, 41.0},
    {"HOP", "SopCast", 29.0, 40.7, 37.9, 48.0, 45.9, 43.0, 56.9, 49.8},
    {"HOP", "TVAnts", 62.1, 55.0, 81.1, 71.9, 57.8, 53.0, 78.9, 67.2},
};

/// Figure 2 intra/inter-AS traffic ratios reported in §IV-B.
struct PaperAsRatio {
  const char* app;
  double ratio;
};

inline constexpr PaperAsRatio kPaperFig2Ratios[] = {
    {"SopCast", 0.2},
    {"TVAnts", 1.93},
    {"PPLive", 0.98},
};

inline std::string paper_cell(double v, int precision = 1) {
  return v < 0 ? "-" : fmt(v, precision);
}

/// Runs PPLive, SopCast and TVAnts concurrently; results ordered
/// [pplive, sopcast, tvants]. With cfg.full_scale each application's
/// background population is set to the paper's full observed-peer
/// count (Table II's "observed total" column) — no count scaling;
/// the calendar-queue engine + SoA peer state carry the 181,729-peer
/// PPLive swarm directly.
inline std::vector<exp::RunResult> run_three_apps(
    const net::AsTopology& topo, const BenchConfig& cfg) {
  std::vector<exp::RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants()}) {
    exp::RunSpec spec;
    spec.profile = std::move(profile);
    if (cfg.full_scale) {
      for (const PaperSummary& row : kPaperTable2) {
        if (spec.profile.name == row.app) {
          spec.profile.population.background_peers =
              static_cast<std::size_t>(row.observed_total);
        }
      }
    }
    spec.seed = cfg.seed;
    spec.duration = util::SimTime::seconds(cfg.seconds);
    specs.push_back(std::move(spec));
  }
  util::ThreadPool pool;
  return exp::run_experiments(topo, specs, pool);
}

}  // namespace peerscope::bench
