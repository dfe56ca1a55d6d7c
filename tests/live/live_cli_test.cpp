// Live-introspection suite (DESIGN.md §17), label `live`: drives the
// built `peerscope` binary end to end. A seeded run records a PSTS
// series sidecar that `timeline` reads back strictly, deterministically
// and — after deliberate corruption — in salvage mode; `watch` renders
// the status.json the live monitor published; a run that sustainedly
// violates a declared SLO exits 10 with a flight-recorder dump; and a
// healthy run's trace export after its simulation is never judged.
//
// The binary's path comes from the build (PEERSCOPE_CLI); each test
// works in its own scratch directory.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "exp/status.hpp"
#include "support/temp_dir.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace peerscope {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

  /// Runs `peerscope ARGS` inside the scratch directory.
  CliResult peerscope(const std::string& args) const {
    const fs::path out = dir_ / "stdout.txt";
    const fs::path err = dir_ / "stderr.txt";
    const std::string command = "cd '" + dir_.string() + "' && '" +
                                PEERSCOPE_CLI + "' " + args + " > '" +
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
  int dumps = 0;
  const std::regex schema{R"("schema": *"peerscope\.trace/1")"};
  for (const auto& entry :
       fs::directory_iterator{dir_ / "stall-run" / "experiment.journal.d"}) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".trace.json")) continue;
    ++dumps;
    EXPECT_TRUE(std::regex_search(read_file(entry.path()), schema)) << name;
  }
  EXPECT_EQ(dumps, 1);
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

}  // namespace
}  // namespace peerscope
