// CLI-level storage chaos sweep, label `chaos`: the end-to-end half of
// the chaos matrix (the library-level half is chaos_matrix_test.cpp).
// Each cell runs the built `peerscope` binary under an injected storage
// fault schedule and asserts the documented outcome:
//
//   cell                           exit   invariant checked
//   -------------------------------------------------------------------
//   clean baseline                 0      metrics sidecar complete
//   transient EINTR storm          0      outputs byte-identical to the
//                                         clean baseline
//   ENOSPC mid-trace               1      failure is loud, the sidecar is
//                                         still written and counts the
//                                         injected faults, no temp litter
//   fsync failure + --retries 1    0      supervisor retry recovers
//   bit rot -> analyze             6      strict reader refuses
//   bit rot -> analyze --salvage   0      salvage accounts the victim
//   bit rot -> trace-summary       7      corrupt trace.json is refused
//   malformed --io-faults spec     4      rejected before running
//
// The cells write into PEERSCOPE_CHAOS_OUT (a build-tree directory):
// `<cell>.log` holds a cell's stdout and stderr, `<cell>_metrics.json`
// its sidecar, and salvage_accounting.txt the salvage lines, so a CI
// job can upload them. Each test makes its own clean baseline, so the
// cells are independent and run in parallel.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"

namespace peerscope {
namespace {

namespace fs = std::filesystem;

constexpr const char* kRun =
    "run --app tvants --seed 1 --duration 5 --trace-format binary";

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ChaosCli : public ::testing::Test {
 protected:
  static fs::path out() {
    const fs::path dir{PEERSCOPE_CHAOS_OUT};
    std::error_code ec;
    fs::create_directories(dir, ec);
    return dir;
  }

  /// Runs `peerscope ARGS` inside out() with stdout and stderr captured
  /// to `<cell>.log`, after clearing what an earlier run of the cell
  /// left there. Returns the exit code (-1 when it did not exit).
  static int cell(const std::string& name, const std::string& args) {
    std::error_code ec;
    fs::remove_all(out() / name, ec);
    fs::remove(out() / (name + "_metrics.json"), ec);
    const std::string command = "cd '" + out().string() + "' && '" +
                                std::string{PEERSCOPE_CLI} + "' " + args +
                                " > '" + name + ".log' 2>&1";
    const int status = std::system(command.c_str());
    return status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// A clean binary-trace run into out()/<name>; returns the fault
  /// victim, the first .psct trace in name order.
  static std::string baseline(const std::string& name) {
    EXPECT_EQ(cell(name, std::string{kRun} + " --out " + name), 0)
        << read_file(out() / (name + ".log"));
    std::vector<std::string> traces;
    for (const auto& entry : fs::directory_iterator{out() / name}) {
      if (entry.path().extension() == ".psct") {
        traces.push_back(entry.path().filename().string());
      }
    }
    std::sort(traces.begin(), traces.end());
    return traces.empty() ? std::string{} : traces.front();
  }

  /// A faulted run that would otherwise have been `name`'s clean run.
  static int faulted(const std::string& name, const std::string& faults,
                     const std::string& extra = "") {
    return cell(name, std::string{kRun} + " --out " + name + extra +
                          " --io-faults '" + faults + "' --metrics " + name +
                          "_metrics.json");
  }

  /// The cell's metrics sidecar exists and names every key: a faulted
  /// run that skips its sidecar is the silent truncation this sweep
  /// exists to catch.
  static void expect_sidecar(const std::string& name,
                             std::initializer_list<const char*> keys) {
    const std::string sidecar = read_file(out() / (name + "_metrics.json"));
    ASSERT_FALSE(sidecar.empty()) << name << ": metrics sidecar missing";
    for (const char* key : keys) {
      EXPECT_NE(sidecar.find('"' + std::string{key} + '"'),
                std::string::npos)
          << name << ": sidecar lacks " << key;
    }
  }
};

TEST_F(ChaosCli, CleanRunWritesACompleteSidecar) {
  ASSERT_EQ(cell("clean", std::string{kRun} +
                              " --out clean --metrics clean_metrics.json"),
            0)
      << read_file(out() / "clean.log");
  expect_sidecar("clean",
                 {"sim.events_executed", "trace.binary_files_written"});
}

TEST_F(ChaosCli, TransientFaultsAreAbsorbedByteIdentically) {
  const std::string victim = baseline("eintr-baseline");
  ASSERT_FALSE(victim.empty());
  EXPECT_EQ(faulted("eintr", "eintr@4:" + victim + ",short-write@900:" +
                                 victim),
            0)
      << read_file(out() / "eintr.log");
  expect_sidecar("eintr",
                 {"io.faults_injected", "io.eintr_retries", "io.short_writes"});
  EXPECT_EQ(read_file(out() / "eintr" / victim),
            read_file(out() / "eintr-baseline" / victim))
      << victim << " diverged from the clean baseline";
}

TEST_F(ChaosCli, EnospcFailsLoudlyWithACompleteSidecarAndNoLitter) {
  const std::string victim = baseline("enospc-baseline");
  ASSERT_FALSE(victim.empty());
  EXPECT_EQ(faulted("enospc", "enospc@5000:" + victim), 1)
      << read_file(out() / "enospc.log");
  expect_sidecar("enospc", {"io.faults_injected", "io.enospc_failures"});
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{out() / "enospc", ec}) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "temp-file litter: " << entry.path();
  }
}

TEST_F(ChaosCli, FsyncFailureIsRecoveredByASupervisorRetry) {
  const std::string victim = baseline("fsync-baseline");
  ASSERT_FALSE(victim.empty());
  EXPECT_EQ(faulted("fsync-retry", "fsync-fail:" + victim, " --retries 1"), 0)
      << read_file(out() / "fsync-retry.log");
  expect_sidecar("fsync-retry", {"io.faults_injected", "io.fsync_failures"});
}

TEST_F(ChaosCli, BitRotIsRefusedStrictlyAndAccountedBySalvage) {
  const std::string victim = baseline("bitrot-baseline");
  ASSERT_FALSE(victim.empty());
  fs::remove_all(out() / "bitrot");
  fs::copy(out() / "bitrot-baseline", out() / "bitrot",
           fs::copy_options::recursive);
  {
    // peerscope-lint: allow(no-raw-artifact-io): tests plant corrupt bytes
    std::fstream trace{out() / "bitrot" / victim,
                       std::ios::in | std::ios::out | std::ios::binary};
    ASSERT_TRUE(trace.good());
    trace.seekp(2000);
    trace.write("\0\0\0\0", 4);
  }
  EXPECT_EQ(cell("analyze-strict", "analyze bitrot"), 6)
      << read_file(out() / "analyze-strict.log");
  EXPECT_EQ(cell("analyze-salvage", "analyze bitrot --salvage"), 0)
      << read_file(out() / "analyze-salvage.log");
  std::istringstream log{read_file(out() / "analyze-salvage.log")};
  std::string accounting;
  for (std::string line; std::getline(log, line);) {
    if (line.rfind("salvage ", 0) == 0) accounting += line + '\n';
  }
  util::write_file_atomic(out() / "salvage_accounting.txt", accounting);
  EXPECT_NE(accounting.find("salvage " + victim + ":"), std::string::npos)
      << "no accounting line for " << victim << " in:\n"
      << accounting;
}

TEST_F(ChaosCli, CorruptTraceJsonIsRefused) {
  util::write_file_atomic(out() / "bad_trace.json", "not a trace\n");
  EXPECT_EQ(cell("trace-summary", "trace-summary bad_trace.json"), 7)
      << read_file(out() / "trace-summary.log");
}

TEST_F(ChaosCli, MalformedFaultSpecIsRejectedUpFront) {
  EXPECT_EQ(cell("bad-spec", "run --app tvants --seed 1 --duration 1"
                             " --out bad-spec --io-faults 'bogus@@'"),
            4)
      << read_file(out() / "bad-spec.log");
}

}  // namespace
}  // namespace peerscope
