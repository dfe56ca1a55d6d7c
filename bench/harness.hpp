// Shared bench-harness plumbing: runs the three applications at the
// default reproduction scale; the paper's published values and shape
// claims come from aware/paper.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/resource.h>

#include "aware/export.hpp"
#include "aware/paper.hpp"
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

/// perfbench/verify.cpp still names this table through the bench
/// namespace; the benchmark change that moves perfbench onto
/// aware/paper.hpp removes this declaration.
using aware::kPaperTable4;

inline std::string paper_cell(double v, int precision = 1) {
  return v < 0 ? "-" : fmt(v, precision);
}

/// Runs PPLive, SopCast and TVAnts concurrently; results ordered
/// [pplive, sopcast, tvants]. With cfg.full_scale each application's
/// background population is set to the paper's full observed-peer
/// count (Table II's "observed total" column) — no count scaling;
/// the calendar-queue engine + SoA peer state carry the 181,729-peer
/// PPLive swarm directly. `customize`, when given, adjusts each spec
/// (impairment, churn, discovery) before the runs start.
inline std::vector<exp::RunResult> run_three_apps(
    const net::AsTopology& topo, const BenchConfig& cfg,
    const std::function<void(exp::RunSpec&)>& customize = {}) {
  std::vector<exp::RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants()}) {
    exp::RunSpec spec;
    spec.profile = std::move(profile);
    if (cfg.full_scale) {
      for (const aware::PaperSummary& row : aware::kPaperTable2) {
        if (spec.profile.name == row.app) {
          spec.profile.population.background_peers =
              static_cast<std::size_t>(row.observed_total);
        }
      }
    }
    spec.seed = cfg.seed;
    spec.duration = util::SimTime::seconds(cfg.seconds);
    if (customize) customize(spec);
    specs.push_back(std::move(spec));
  }
  util::ThreadPool pool;
  return exp::run_experiments(topo, specs, pool);
}

/// The oracle's view of the products a bench rendered for
/// run_three_apps' results, plus the PPLive-Popular panel when a fourth
/// run follows them.
inline aware::PaperRuns paper_runs(
    const std::vector<aware::RunProducts>& products) {
  aware::PaperRuns runs;
  runs.pplive = &products.at(0);
  runs.sopcast = &products.at(1);
  runs.tvants = &products.at(2);
  if (products.size() > 3) runs.popular = &products[3];
  return runs;
}

/// Prints `claims` under the bench's "shape claims" heading and returns
/// the bench's exit code (aware::judge).
inline int judge_claims(std::span<const aware::Claim> claims,
                        std::int64_t simulated_seconds) {
  std::cout << "\nshape claims:\n";
  return aware::judge(claims, simulated_seconds, std::cout);
}

}  // namespace peerscope::bench
