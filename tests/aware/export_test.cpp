#include "aware/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/temp_dir.hpp"

namespace peerscope::aware {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> lines(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(ExportTest, AwarenessCsvLayout) {
  std::vector<AwarenessRow> rows(1);
  rows[0].metric = Metric::kAs;
  rows[0].download.b_pct = 12.5;
  rows[0].download.p_pct = 3.0;
  rows[0].download.b_prime_pct = 6.5;
  rows[0].download.p_prime_pct = 0.5;
  // upload left unmeasured -> empty cells.
  const auto path = dir_ / "aw.csv";
  write_awareness_csv(path, "TVAnts", rows);
  const auto content = lines(path);
  ASSERT_EQ(content.size(), 3u);
  EXPECT_EQ(content[0],
            "app,metric,direction,b_prime_pct,p_prime_pct,b_pct,p_pct");
  EXPECT_EQ(content[1].substr(0, 20), "TVAnts,AS,download,6");
  EXPECT_EQ(content[2], "TVAnts,AS,upload,,,,");
}

TEST_F(ExportTest, SummaryCsvRoundValues) {
  ExperimentSummary s;
  s.rx_kbps_mean = 420.5;
  s.observed_total = 567;
  const auto path = dir_ / "sum.csv";
  write_summary_csv(path, "TVAnts", s);
  const auto content = lines(path);
  ASSERT_EQ(content.size(), 2u);
  EXPECT_NE(content[1].find("TVAnts,420.5"), std::string::npos);
  EXPECT_NE(content[1].find(",567"), std::string::npos);
}

TEST_F(ExportTest, GeoCsvStarBucket) {
  std::vector<GeoShare> shares{
      {net::kChina, 70.0, 50.0, 60.0},
      {net::CountryCode{}, 30.0, 50.0, 40.0},
  };
  const auto path = dir_ / "geo.csv";
  write_geo_csv(path, "PPLive", shares);
  const auto content = lines(path);
  ASSERT_EQ(content.size(), 3u);
  EXPECT_EQ(content[1].substr(0, 10), "PPLive,CN,");
  EXPECT_EQ(content[2].substr(0, 9), "PPLive,*,");
}

TEST_F(ExportTest, MatrixCsvLongForm) {
  AsMatrix matrix;
  matrix.ases = {net::AsId{1}, net::AsId{2}};
  matrix.mean_bytes = {10, 2, 3, 20};
  const auto path = dir_ / "matrix.csv";
  write_matrix_csv(path, "TVAnts", matrix);
  const auto content = lines(path);
  ASSERT_EQ(content.size(), 5u);  // header + 4 cells
  EXPECT_NE(content[1].find("TVAnts,1,1,10,1"), std::string::npos);
  EXPECT_NE(content[2].find("TVAnts,1,2,2,0"), std::string::npos);
}

TEST_F(ExportTest, TimeseriesCsv) {
  std::vector<IntervalStats> series(2);
  series[0].start = util::SimTime::seconds(0);
  series[0].rx_kbps = 400;
  series[1].start = util::SimTime::seconds(10);
  series[1].active_peers = 7;
  const auto path = dir_ / "ts.csv";
  write_timeseries_csv(path, series);
  const auto content = lines(path);
  ASSERT_EQ(content.size(), 3u);
  EXPECT_EQ(content[1].substr(0, 6), "0,400,");
  EXPECT_NE(content[2].find(",7,"), std::string::npos);
}

TEST_F(ExportTest, UnwritablePathThrows) {
  std::vector<AwarenessRow> rows(1);
  EXPECT_THROW(
      write_awareness_csv(dir_ / "no_such_dir" / "x.csv", "A", rows),
      std::runtime_error);
}

}  // namespace
}  // namespace peerscope::aware
