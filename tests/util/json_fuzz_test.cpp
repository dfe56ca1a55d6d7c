// Corruption robustness of the shared JSON reader (util/json.hpp), in
// the style of tests/trace/fuzz_test.cpp: seeded truncations, byte
// flips and splices of one real document of each kind PeerScope writes
// — metrics.json, trace.json, status.json, a journal line and a bench/2
// snapshot. Every input must either parse or raise json::ParseError;
// nothing may crash, hang or throw anything else, and nesting past the
// depth bound must be rejected instead of recursing off the stack.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/status.hpp"
#include "exp/supervisor.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/temp_dir.hpp"
#include "util/io_faults.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::util::json {
namespace {

struct Document {
  std::string kind;
  std::string text;
};

std::string slurp(const std::filesystem::path& path) {
  const auto text = util::io::read_file(path);
  EXPECT_TRUE(text.has_value()) << path;
  return text.value_or("");
}

/// One document of each kind, written by the real writers during a
/// tiny supervised run with metrics, tracing, journal and status on;
/// the bench snapshot is a committed one.
const std::vector<Document>& real_documents() {
  static const std::vector<Document> documents = [] {
    const auto dir = test::unique_temp_dir();
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder;
    obs::install(&registry);
    obs::install_tracer(&recorder);
    exp::RunSpec spec;
    spec.profile = p2p::SystemProfile::tvants();
    spec.profile.population.background_peers = 120;
    spec.duration = util::SimTime::seconds(5);
    exp::SupervisorConfig config;
    config.journal = dir / "experiment.journal";
    config.status_path = dir / "status.json";
    util::ThreadPool pool{1};
    const net::AsTopology topo = net::make_reference_topology();
    (void)exp::supervise_runs(topo, {&spec, 1}, pool, config);
    obs::install_tracer(nullptr);
    obs::install(nullptr);

    std::istringstream journal{slurp(config.journal)};
    std::string header, entry;
    std::getline(journal, header);
    std::getline(journal, entry);
    std::vector<Document> out{
        {"metrics.json", obs::to_json(registry.snapshot())},
        {"trace.json", obs::trace_json(recorder.snapshot())},
        {"status.json", slurp(config.status_path)},
        {"journal line", entry},
        {"bench/2 snapshot",
         slurp(std::filesystem::path{PEERSCOPE_TRAJECTORY_DIR} /
               "BENCH_bench_table2.json")},
    };
    std::filesystem::remove_all(dir);
    return out;
  }();
  return documents;
}

/// parse() returns or throws ParseError; any other exception escapes
/// and fails the test.
bool parses(std::string_view text) {
  try {
    (void)parse(text);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

TEST(JsonFuzz, EveryRealDocumentParses) {
  for (const Document& doc : real_documents()) {
    EXPECT_GT(doc.text.size(), 20u) << doc.kind;
    EXPECT_TRUE(parses(doc.text)) << doc.kind;
  }
}

TEST(JsonFuzz, TruncationsNeverParse) {
  util::Rng rng{2024};
  for (const Document& doc : real_documents()) {
    const std::size_t end = doc.text.find_last_not_of(" \n") + 1;
    for (int trial = 0; trial < 300; ++trial) {
      const std::size_t keep = rng.below(end);
      // Every document is an object, so no strict prefix is complete.
      EXPECT_FALSE(parses(doc.text.substr(0, keep))) << doc.kind << keep;
    }
  }
}

TEST(JsonFuzz, ByteFlipsParseOrRaise) {
  util::Rng rng{4242};
  for (const Document& doc : real_documents()) {
    int parsed = 0, rejected = 0;
    for (int trial = 0; trial < 500; ++trial) {
      std::string mutated = doc.text;
      const std::size_t position = rng.below(mutated.size());
      mutated[position] = static_cast<char>(
          static_cast<std::uint8_t>(mutated[position]) ^
          (1u << rng.below(8)));
      if (parses(mutated)) {
        ++parsed;
      } else {
        ++rejected;
      }
      if (doc.kind == "status.json") {
        EXPECT_NO_THROW((void)exp::parse_status(mutated));
      }
    }
    EXPECT_EQ(parsed + rejected, 500) << doc.kind;
    EXPECT_GT(rejected, 0) << doc.kind;
  }
}

TEST(JsonFuzz, SplicesParseOrRaise) {
  util::Rng rng{777};
  const auto& documents = real_documents();
  int rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string& head = documents[rng.below(documents.size())].text;
    const std::string& tail = documents[rng.below(documents.size())].text;
    const std::string spliced = head.substr(0, rng.below(head.size())) +
                                tail.substr(rng.below(tail.size()));
    if (!parses(spliced)) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST(JsonFuzz, DeepNestingHitsTheDepthBound) {
  const std::size_t depth = 100'000;
  for (const std::string& text :
       {std::string(depth, '['), std::string(depth, '[') +
                                     std::string(depth, ']'),
        [depth] {
          std::string nested;
          for (std::size_t i = 0; i < depth; ++i) nested += "{\"k\":";
          return nested;
        }()}) {
    try {
      (void)parse(text);
      FAIL() << "nesting " << depth << " deep parsed";
    } catch (const ParseError& error) {
      EXPECT_NE(std::string{error.what()}.find("depth"), std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace peerscope::util::json
