#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "support/temp_dir.hpp"

namespace peerscope::obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = test::unique_temp_dir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(TelemetryTest, InstallsOnlyWhatWasAskedFor) {
  TelemetryConfig config;
  config.metrics_path = dir_ / "metrics.json";
  Telemetry session{config};
  EXPECT_TRUE(enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_FALSE(series_enabled());
  const TelemetryReport report = session.finish();
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(report.write_failed);
  EXPECT_TRUE(std::filesystem::exists(config.metrics_path));
  EXPECT_TRUE(report.trace.events.empty());
}

TEST_F(TelemetryTest, SidecarWritesLandInTheMetricsWrittenLast) {
  TelemetryConfig config;
  config.metrics_path = dir_ / "metrics.json";
  config.trace_path = dir_ / "trace.json";
  config.series_path = dir_ / "series.psts";
  Telemetry session{config};
  ASSERT_TRUE(enabled() && trace_enabled() && series_enabled());
  tracer()->begin("phase");
  tracer()->end("phase");
  const TelemetryReport report = session.finish();
  EXPECT_FALSE(enabled() || trace_enabled() || series_enabled());
  // The series is written while the registry still counts.
  EXPECT_EQ(report.metrics.counters.at("obs.series.files_written"), 1u);
  EXPECT_EQ(report.trace.events.size(), 2u);
  for (const auto& path :
       {config.metrics_path, config.trace_path, config.series_path}) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }
}

TEST_F(TelemetryTest, RecordersWithoutPathsWriteNothingButReport) {
  TelemetryConfig config;
  config.metrics = true;
  config.trace = true;
  Telemetry session{config};
  ASSERT_TRUE(enabled() && trace_enabled());
  counter("sim.events_executed").add(7);
  tracer()->begin("phase");
  tracer()->end("phase");
  const TelemetryReport report = session.finish();
  EXPECT_EQ(report.metrics.counters.at("sim.events_executed"), 7u);
  EXPECT_EQ(report.trace.events.size(), 2u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
  EXPECT_FALSE(report.write_failed);
}

TEST_F(TelemetryTest, AFailedWriteIsReportedAndTheRestStillLand) {
  TelemetryConfig config;
  config.trace_path = dir_ / "missing" / "trace.json";
  config.metrics_path = dir_ / "metrics.json";
  const TelemetryReport report = Telemetry{config}.finish();
  EXPECT_TRUE(report.write_failed);
  EXPECT_TRUE(std::filesystem::exists(config.metrics_path));
  EXPECT_EQ(report.exit_code(0), 1);
  EXPECT_EQ(report.exit_code(3), 3);
  EXPECT_EQ(TelemetryReport{}.exit_code(0), 0);
}

TEST_F(TelemetryTest, DestructorFinishesAnUnfinishedSession) {
  TelemetryConfig config;
  config.metrics_path = dir_ / "metrics.json";
  { Telemetry session{config}; }
  EXPECT_FALSE(enabled());
  EXPECT_TRUE(std::filesystem::exists(config.metrics_path));
}

}  // namespace
}  // namespace peerscope::obs
