// Live-introspection suite (DESIGN.md §17), label `live`: drives the
// built `peerscope` binary end to end. A seeded run records a PSTS
// series sidecar that `timeline` reads back strictly, deterministically
// and — after deliberate corruption — in salvage mode; `watch` renders
// the status.json the live monitor published; a run that sustainedly
// violates a declared SLO exits 10 with a flight-recorder dump; a
// healthy run's trace export after its simulation is never judged; a
// tracker outage fails over (exit 0) or degrades (exit 8 + dump);
// malformed integer flags (and example arguments) exit 4 instead of
// running; and a reproduce batch SIGKILLed after its first journaled
// result resumes to a report byte-identical to an uninterrupted one.
//
// The bench telemetry hooks ride along: bench_table2's PEERSCOPE_BENCH_*
// summary agrees with its sidecars, leaves stdout alone, traces
// deterministically, and rejects a malformed duration with exit 2.
//
// The binaries' paths come from the build (PEERSCOPE_CLI,
// PEERSCOPE_BENCH_TABLE2, PEERSCOPE_QUICKSTART); each test works in its
// own scratch directory.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "exp/status.hpp"
#include "support/temp_dir.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/parse_int.hpp"

namespace peerscope {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The number printed right before `label` in `text` ("46 failovers"),
/// or 0 when there is none.
[[nodiscard]] std::uint64_t count_before(const std::string& text,
                                         const std::string& label) {
  const std::size_t at = text.find(label);
  if (at == std::string::npos) return 0;
  std::size_t begin = at;
  while (begin > 0 && text[begin - 1] >= '0' && text[begin - 1] <= '9') {
    --begin;
  }
  return util::parse_int<std::uint64_t>(
             std::string_view{text}.substr(begin, at - begin))
      .value_or(0);
}

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

class LiveCli : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = test::unique_temp_dir(); }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Runs `ENV peerscope ARGS` inside the scratch directory.
  CliResult peerscope(const std::string& args,
                      const std::string& env = "") const {
    return run(PEERSCOPE_CLI, args, env);
  }

  /// Runs `ENV BINARY ARGS` inside the scratch directory.
  CliResult run(const std::string& binary, const std::string& args,
                const std::string& env) const {
    const fs::path out = dir_ / "stdout.txt";
    const fs::path err = dir_ / "stderr.txt";
    const std::string command = "cd '" + dir_.string() + "' && " + env +
                                " '" + binary + "' " + args + " > '" +
                                out.string() + "' 2> '" + err.string() + "'";
    const int status = std::system(command.c_str());
    CliResult result;
    if (status != -1 && WIFEXITED(status)) result.code = WEXITSTATUS(status);
    result.out = read_file(out);
    result.err = read_file(err);
    return result;
  }

  /// The seeded tvants run every series test starts from.
  void series_run(const std::string& psts, const std::string& out) const {
    const CliResult run = peerscope(
        "--series " + psts + " --series-interval 5 run --app tvants --seed 7"
        " --duration 60 --out " + out);
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.err.find("series: wrote " + psts), std::string::npos)
        << run.err;
  }

  /// Flight-recorder dumps in `journal_d`, each checked to carry the
  /// trace schema.
  static int flight_dumps(const fs::path& journal_d) {
    int dumps = 0;
    for (const auto& entry : fs::directory_iterator{journal_d}) {
      const std::string name = entry.path().filename().string();
      if (!name.ends_with(".trace.json")) continue;
      ++dumps;
      const std::string dump = read_file(entry.path());
      EXPECT_NE(dump.find(R"("schema": "peerscope.trace/1")"),
                std::string::npos)
          << name;
    }
    return dumps;
  }

  fs::path dir_;
};

TEST_F(LiveCli, SeriesRunAndWatchOnceReportOk) {
  const CliResult run = peerscope(
      "--series run.psts --series-interval 5 run --app tvants --seed 7"
      " --duration 60 --out series-run --watch-status status.json");
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.err.find("series: wrote run.psts"), std::string::npos)
      << run.err;

  // The monitor's final snapshot parses and reports "done".
  const auto view = exp::parse_status(read_file(dir_ / "status.json"));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
  ASSERT_EQ(view->runs.size(), 1u);
  EXPECT_EQ(view->runs[0].state, "ok");

  const CliResult watch = peerscope("watch --once status.json");
  ASSERT_EQ(watch.code, 0) << watch.err;
  EXPECT_NE(watch.out.find("ok"), std::string::npos) << watch.out;
}

TEST_F(LiveCli, TimelineReadsTheSeriesStrictly) {
  series_run("run.psts", "series-run");
  const CliResult table = peerscope("timeline run.psts");
  ASSERT_EQ(table.code, 0) << table.err;
  EXPECT_NE(table.out.find("p2p.chunks_delivered"), std::string::npos);

  const CliResult csv = peerscope("timeline --csv run.psts");
  ASSERT_EQ(csv.code, 0) << csv.err;
  EXPECT_EQ(csv.out.rfind("run,index,at_ns,metric", 0), 0u)
      << csv.out.substr(0, 80);
}

TEST_F(LiveCli, DeterministicTimelineIsByteIdenticalOnRerun) {
  series_run("run.psts", "series-run");
  series_run("rerun.psts", "series-rerun");
  const CliResult first = peerscope("timeline --deterministic run.psts");
  const CliResult second = peerscope("timeline --deterministic rerun.psts");
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(second.code, 0) << second.err;
  EXPECT_FALSE(first.out.empty());
  EXPECT_EQ(first.out, second.out);
}

TEST_F(LiveCli, CorruptedSidecarExits7AndSalvageStillReports) {
  series_run("run.psts", "series-run");
  std::string bytes = read_file(dir_ / "run.psts");
  ASSERT_GT(bytes.size(), 10u);
  bytes[bytes.size() - 10] = static_cast<char>(0xff);
  util::write_file_atomic(dir_ / "corrupt.psts", bytes);

  const CliResult strict = peerscope("timeline corrupt.psts");
  EXPECT_EQ(strict.code, 7) << strict.err;

  const CliResult salvage = peerscope("timeline --salvage corrupt.psts");
  ASSERT_EQ(salvage.code, 0) << salvage.err;
  EXPECT_NE(salvage.err.find("salvage"), std::string::npos) << salvage.err;
  EXPECT_NE(salvage.out.find("p2p.chunks_delivered"), std::string::npos);
}

TEST_F(LiveCli, StarvedRunExits10WithAFlightDump) {
  const CliResult run = peerscope(
      "--trace stall-trace.json run --app tvants --seed 7 --duration 36000"
      " --out stall-run --slo-events-floor 1e15"
      " --watch-status stall-status.json");
  ASSERT_EQ(run.code, 10) << run.err;
  EXPECT_NE(run.err.find("slo violation"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("below floor"), std::string::npos) << run.err;

  // The cancelled attempt left a post-mortem flight recording.
  EXPECT_EQ(flight_dumps(dir_ / "stall-run" / "experiment.journal.d"), 1);
}

TEST_F(LiveCli, TraceExportAfterTheSimulationIsNeverJudged) {
  // The pcap export runs after the engine stops; a floor judged on
  // those frozen counters would count violations (and, on a slow
  // disk, trip) on a healthy run.
  const CliResult run = peerscope(
      "--metrics m.json run --app sopcast --seed 7 --duration 300 --out o"
      " --pcap --slo-events-floor 1000");
  ASSERT_EQ(run.code, 0) << run.err;
  const util::json::Value metrics =
      util::json::parse_or_null(read_file(dir_ / "m.json"));
  const util::json::Value& counters = metrics["counters"];
  ASSERT_EQ(counters.kind(), util::json::Value::Kind::kObject);
  EXPECT_EQ(counters["watchdog.trips"].integer<std::uint64_t>().value_or(0),
            0u);
  EXPECT_EQ(
      counters["watchdog.violations"].integer<std::uint64_t>().value_or(0),
      0u);
}

TEST_F(LiveCli, MalformedRunIntegersExit4) {
  // A sign, trailing bytes and an overflow: a lenient parser wraps or
  // truncates each into a number and runs.
  for (const std::string flags :
       {"--seed -5 --duration 2", "--duration 2x",
        "--seed 18446744073709551616 --duration 2", "--duration 0x10"}) {
    const CliResult run = peerscope("run --app tvants --out o " + flags);
    EXPECT_EQ(run.code, 4) << flags << '\n' << run.err;
    EXPECT_FALSE(fs::exists(dir_ / "o" / "experiment.meta")) << flags;
  }
}

TEST_F(LiveCli, MalformedReproduceIntegersExit4) {
  // Unchecked trailing bytes would run "banana" at seed 0.
  for (const std::string flags :
       {"--seed banana --duration 1", "--seed 7 --duration 1s"}) {
    const CliResult run = peerscope("reproduce --out r.md " + flags);
    EXPECT_EQ(run.code, 4) << flags << '\n' << run.err;
    EXPECT_FALSE(fs::exists(dir_ / "r.md")) << flags;
  }
}

TEST_F(LiveCli, MalformedIoFaultsSeedExits4) {
  const CliResult flag =
      peerscope("--io-faults fsync-fail#2 --io-faults-seed -1 testbed");
  EXPECT_EQ(flag.code, 4) << flag.err;
  const CliResult env =
      peerscope("--io-faults fsync-fail#2 testbed",
                "PEERSCOPE_IO_FAULTS_SEED=18446744073709551616");
  EXPECT_EQ(env.code, 4) << env.err;
  const CliResult ok =
      peerscope("--io-faults fsync-fail#2 --io-faults-seed 7 testbed");
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST_F(LiveCli, ExampleRejectsMalformedIntegers) {
  // A lenient parser ran this as "2 s, seed 0" and exited 0.
  const CliResult bad = run(PEERSCOPE_QUICKSTART, "tvants banana 2x", "");
  EXPECT_EQ(bad.code, 4) << bad.err;
  EXPECT_NE(bad.err.find("usage: quickstart"), std::string::npos) << bad.err;
  EXPECT_TRUE(bad.out.empty()) << bad.out;
}

// Crash safety: SIGKILL a traced reproduce batch once its first run is
// durably journaled, plant the torn flight dump a kill can leave in
// journal.d, and resume. The resumed report must be byte-identical to
// an uninterrupted reference run, tracing and the torn dump
// notwithstanding.
TEST_F(LiveCli, KilledReproduceResumesToAByteIdenticalReport) {
  fs::create_directories(dir_ / "ref");
  fs::create_directories(dir_ / "run");
  const CliResult reference =
      peerscope("reproduce --out ref/REPORT.md --duration 900");
  ASSERT_EQ(reference.code, 0) << reference.err;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the traced batch, output discarded.
    // peerscope-lint: allow(no-raw-artifact-io): opens /dev/null
    const int null = ::open("/dev/null", O_WRONLY);
    if (null < 0 || ::chdir(dir_.c_str()) != 0) ::_exit(127);
    ::dup2(null, STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    ::execl(PEERSCOPE_CLI, PEERSCOPE_CLI, "--trace", "run/trace.json",
            "reproduce", "--out", "run/REPORT.md", "--duration", "900",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const fs::path journal = dir_ / "run" / "experiment.journal";
  const auto journaled_ok = [&] {
    return read_file(journal).find(R"("state":"ok")") != std::string::npos;
  };
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(120);
  bool exited = false;
  int status = 0;
  while (!journaled_ok() && std::chrono::steady_clock::now() < give_up) {
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!exited) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  ASSERT_TRUE(journaled_ok()) << "no completed run was journaled";

  fs::create_directories(dir_ / "run" / "experiment.journal.d");
  util::write_file_atomic(
      dir_ / "run" / "experiment.journal.d" / "torn-by-sigkill.trace.json",
      "{\"schema\": \"peerscope.trace/1\",\n\"traceEvents\": [\n"
      "{\"name\": \"run.torn");
  const CliResult resumed = peerscope(
      "--trace run/trace.json reproduce --out run/REPORT.md --duration 900"
      " --resume");
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.err.find("skipped"), std::string::npos) << resumed.err;
  const std::string expected = read_file(dir_ / "ref" / "REPORT.md");
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(read_file(dir_ / "run" / "REPORT.md"), expected);
}

// Discovery outage: the tracker dies mid-run. With a DHT fallback every
// probe fails over and re-joins inside the SLO; without one the run
// degrades to exit 8 and leaves a flight-recorder dump in journal.d.
TEST_F(LiveCli, TrackerOutageWithFallbackFailsOverAndExitsClean) {
  const CliResult run = peerscope(
      "run --app tvants --duration 60 --out ok-run --discovery tracker"
      " --fallback dht --tracker-outage-at 20 --tracker-outage-for 20"
      " --rejoin-deadline 30");
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_GE(count_before(run.err, " failovers"), 1u) << run.err;
  EXPECT_GE(count_before(run.err, " tracker failures"), 1u) << run.err;
}

TEST_F(LiveCli, TrackerOutageWithoutFallbackDegradesToExit8WithADump) {
  const CliResult run = peerscope(
      "--trace bad-run-trace.json run --app tvants --duration 60"
      " --out bad-run --discovery tracker --tracker-outage-at 10"
      " --tracker-outage-for 50 --rejoin-deadline 5 --churn 6");
  ASSERT_EQ(run.code, 8) << run.err;
  EXPECT_NE(run.err.find("discovery degraded"), std::string::npos)
      << run.err;
  EXPECT_EQ(flight_dumps(dir_ / "bad-run" / "experiment.journal.d"), 1);
}

// The bench telemetry hooks: bench_table2 at 5 simulated seconds with
// the PEERSCOPE_BENCH_* variables on and off.
class BenchHooks : public LiveCli {
 protected:
  CliResult bench_table2(const std::string& env) const {
    return run(PEERSCOPE_BENCH_TABLE2, "", "PEERSCOPE_BENCH_SECONDS=5 " + env);
  }
};

TEST_F(BenchHooks, JsonCountsWhatTheSidecarsCount) {
  // The summary and the sidecars are rendered from the same snapshots.
  const CliResult run = bench_table2(
      "PEERSCOPE_BENCH_JSON=b.json PEERSCOPE_BENCH_METRICS=m.json"
      " PEERSCOPE_BENCH_TRACE=t.json");
  ASSERT_EQ(run.code, 0) << run.err;
  const util::json::Value summary =
      util::json::parse_or_null(read_file(dir_ / "b.json"));
  const util::json::Value metrics =
      util::json::parse_or_null(read_file(dir_ / "m.json"));
  const auto events = summary["events_executed"].integer<std::uint64_t>();
  ASSERT_TRUE(events.has_value()) << read_file(dir_ / "b.json");
  EXPECT_GT(*events, 0u);
  EXPECT_EQ(*events, metrics["counters"]["sim.events_executed"]
                         .integer<std::uint64_t>()
                         .value_or(0));
  ASSERT_EQ(summary["phases"].kind(), util::json::Value::Kind::kArray);
  EXPECT_FALSE(summary["phases"].items().empty());
}

TEST_F(BenchHooks, StdoutIsIdenticalWithEveryHookOnOrOff) {
  const CliResult on = bench_table2(
      "PEERSCOPE_BENCH_JSON=b.json PEERSCOPE_BENCH_METRICS=m.json"
      " PEERSCOPE_BENCH_TRACE=t.json PEERSCOPE_BENCH_SERIES=s.psts"
      " PEERSCOPE_BENCH_SERIES_SECONDS=1");
  ASSERT_EQ(on.code, 0) << on.err;
  for (const char* sidecar : {"b.json", "m.json", "t.json", "s.psts"}) {
    EXPECT_TRUE(fs::exists(dir_ / sidecar)) << sidecar;
  }
  const CliResult off = bench_table2("");
  ASSERT_EQ(off.code, 0) << off.err;
  EXPECT_FALSE(off.out.empty());
  EXPECT_EQ(on.out, off.out);
}

TEST_F(BenchHooks, TwoTracedRunsGiveTheSameDeterministicSummary) {
  ASSERT_EQ(bench_table2("PEERSCOPE_BENCH_TRACE=a.json").code, 0);
  ASSERT_EQ(bench_table2("PEERSCOPE_BENCH_TRACE=b.json").code, 0);
  const CliResult first = peerscope("trace-summary --deterministic a.json");
  const CliResult second = peerscope("trace-summary --deterministic b.json");
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(second.code, 0) << second.err;
  EXPECT_FALSE(first.out.empty());
  EXPECT_EQ(first.out, second.out);
}

TEST_F(BenchHooks, MalformedSecondsExit2) {
  const CliResult run = bench_table2("PEERSCOPE_BENCH_SECONDS=30x");
  EXPECT_EQ(run.code, 2) << run.err;
  EXPECT_NE(run.err.find("usage: PEERSCOPE_BENCH_SECONDS"),
            std::string::npos)
      << run.err;
  EXPECT_TRUE(run.out.empty()) << run.out;
}

}  // namespace
}  // namespace peerscope
