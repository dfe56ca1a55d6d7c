// Corruption robustness: random byte flips and truncations of trace
// and pcap files must never crash the readers — they either throw a
// clean std::runtime_error or parse (a flip inside a record's payload
// fields is legitimate data corruption the format cannot detect).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/temp_dir.hpp"
#include "trace/io.hpp"
#include "trace/pcap.hpp"
#include "util/rng.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string read_all(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_all(const std::filesystem::path& path, const std::string& data) {
    // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::filesystem::path dir_;
};

std::vector<PacketRecord> sample_records() {
  std::vector<PacketRecord> records;
  for (int i = 0; i < 40; ++i) {
    PacketRecord r;
    r.ts = util::SimTime::micros(i * 211);
    r.remote = Ipv4Addr{20, 0, 0, static_cast<std::uint8_t>(i + 1)};
    r.bytes = i % 2 ? 1250 : 120;
    r.dir = i % 2 ? Direction::kRx : Direction::kTx;
    r.kind = i % 2 ? sim::PacketKind::kVideo : sim::PacketKind::kSignaling;
    r.ttl = static_cast<std::uint8_t>(90 + i);
    records.push_back(r);
  }
  return records;
}

TEST_F(FuzzTest, TraceReaderSurvivesBitFlips) {
  const Ipv4Addr probe{10, 0, 0, 1};
  const auto original_path = dir_ / "clean.psct";
  write_trace(original_path, probe, sample_records());
  const std::string clean = read_all(original_path);

  util::Rng rng{1234};
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = clean;
    const std::size_t position = rng.below(mutated.size());
    mutated[position] = static_cast<char>(
        static_cast<std::uint8_t>(mutated[position]) ^
        (1u << rng.below(8)));
    const auto path = dir_ / "mutated.psct";
    write_all(path, mutated);
    try {
      const TraceFile file = read_trace(path);
      // When it parses, the structure must still be coherent.
      for (const auto& record : file.records) {
        EXPECT_LE(static_cast<int>(record.dir), 1);
        EXPECT_LE(static_cast<int>(record.kind), 1);
      }
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 200);
  // Header/count corruptions must be caught at least sometimes.
  EXPECT_GT(rejected, 0);
}

TEST_F(FuzzTest, TraceReaderSurvivesTruncations) {
  const Ipv4Addr probe{10, 0, 0, 1};
  const auto original_path = dir_ / "clean.psct";
  write_trace(original_path, probe, sample_records());
  const std::string clean = read_all(original_path);

  util::Rng rng{77};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t keep = rng.below(clean.size());
    const auto path = dir_ / "short.psct";
    write_all(path, clean.substr(0, keep));
    // Any truncation breaks the size invariant -> must throw.
    EXPECT_THROW((void)read_trace(path), std::runtime_error) << keep;
  }
}

TEST_F(FuzzTest, PcapReaderSurvivesBitFlips) {
  const Ipv4Addr probe{10, 0, 0, 1};
  const auto original_path = dir_ / "clean.pcap";
  write_pcap(original_path, probe, sample_records());
  const std::string clean = read_all(original_path);

  util::Rng rng{4321};
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = clean;
    const std::size_t position = rng.below(mutated.size());
    mutated[position] = static_cast<char>(
        static_cast<std::uint8_t>(mutated[position]) ^
        (1u << rng.below(8)));
    const auto path = dir_ / "mutated.pcap";
    write_all(path, mutated);
    try {
      (void)read_pcap(path, probe);  // parse or throw, never crash
    } catch (const std::runtime_error&) {
    }
  }
  SUCCEED();
}

TEST_F(FuzzTest, MetadataStyleGarbageNeverParses) {
  util::Rng rng{5};
  for (int trial = 0; trial < 40; ++trial) {
    std::string garbage;
    const std::size_t length = 1 + rng.below(600);
    for (std::size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.below(256)));
    }
    const auto path = dir_ / "garbage.psct";
    write_all(path, garbage);
    EXPECT_THROW((void)read_trace(path), std::runtime_error);
  }
}

}  // namespace
}  // namespace peerscope::trace
