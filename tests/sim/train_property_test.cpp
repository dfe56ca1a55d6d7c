// Property sweeps over the packet-train physics: for any combination
// of sender uplink and receiver line rate, the receiver-observed
// minimum inter-packet gap must equal the bottleneck serialisation
// time — the invariant the whole BW methodology stands on.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/train.hpp"
#include "util/sim_time.hpp"

namespace peerscope::sim {
namespace {

using net::AccessLink;
using util::SimTime;

struct RatePair {
  std::int64_t sender_up_bps;
  std::int64_t receiver_line_bps;
};

class TrainRateSweep : public ::testing::TestWithParam<RatePair> {};

TEST_P(TrainRateSweep, MinGapEqualsBottleneckSerialisation) {
  const auto [up, line] = GetParam();
  AccessLink sender{net::AccessKind::kLan, up, up, up, false, false};
  AccessLink receiver{net::AccessKind::kLan, line, line, line, false,
                      false};
  LinkCursor up_cursor, down_cursor;
  util::Rng rng{99};
  TrainSpec spec;
  spec.packet_count = 13;
  spec.packet_bytes = 1250;
  spec.jitter_max = SimTime::zero();

  TrainResult result;
  transmit_train(spec, sender, up_cursor, receiver, down_cursor,
                 {15, SimTime::millis(50)}, rng, result);

  std::int64_t min_gap = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 1; i < result.arrivals.size(); ++i) {
    min_gap = std::min(min_gap,
                       (result.arrivals[i] - result.arrivals[i - 1]).ns());
  }
  const std::int64_t bottleneck =
      util::transmission_time(1250, std::min(up, line)).ns();
  EXPECT_EQ(min_gap, bottleneck);

  // Classification consequence: > 10 Mb/s bottleneck <=> gap < 1 ms.
  EXPECT_EQ(std::min(up, line) > 10'000'000, min_gap < 1'000'000);
}

TEST_P(TrainRateSweep, DeparturesNeverPrecedeStartAndStayOrdered) {
  const auto [up, line] = GetParam();
  AccessLink sender{net::AccessKind::kLan, up, up, up, false, false};
  AccessLink receiver{net::AccessKind::kLan, line, line, line, false,
                      false};
  LinkCursor up_cursor, down_cursor;
  util::Rng rng{7};
  TrainSpec spec;
  spec.packet_count = 8;
  spec.packet_bytes = 1250;
  spec.start = SimTime::seconds(3);

  TrainResult result;
  transmit_train(spec, sender, up_cursor, receiver, down_cursor,
                 {10, SimTime::millis(20)}, rng, result);
  EXPECT_GT(result.departures.front(), spec.start);
  EXPECT_TRUE(
      std::is_sorted(result.departures.begin(), result.departures.end()));
  EXPECT_TRUE(
      std::is_sorted(result.arrivals.begin(), result.arrivals.end()));
  // Causality: every arrival strictly after its departure.
  for (std::size_t i = 0; i < result.arrivals.size(); ++i) {
    EXPECT_GT(result.arrivals[i], result.departures[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AccessMatrix, TrainRateSweep,
    ::testing::Values(RatePair{100'000'000, 100'000'000},   // LAN-LAN
                      RatePair{20'000'000, 100'000'000},    // fiber up
                      RatePair{512'000, 100'000'000},       // DSL up
                      RatePair{100'000'000, 24'000'000},    // ADSL2+ line
                      RatePair{100'000'000, 38'000'000},    // DOCSIS line
                      RatePair{20'000'000, 24'000'000},     // both mid
                      RatePair{384'000, 24'000'000},        // slow to home
                      RatePair{1'000'000, 100'000'000},     // 1 Mb/s up
                      RatePair{10'100'000, 100'000'000}));  // just over 10M

TEST(TrainConservation, EveryPacketArrivesExactlyOnce) {
  AccessLink link = AccessLink::lan100();
  LinkCursor up, down;
  util::Rng rng{3};
  TrainResult result;  // reused: each call overwrites the previous train
  for (const int count : {100, 13, 1, 2}) {
    TrainSpec spec;
    spec.packet_count = count;
    spec.packet_bytes = 1250;
    spec.start = up.busy_until() + util::SimTime::millis(1);
    transmit_train(spec, link, up, link, down, {5, util::SimTime::millis(10)},
                   rng, result);
    EXPECT_EQ(result.arrivals.size(), static_cast<std::size_t>(count));
    EXPECT_EQ(result.departures.size(), static_cast<std::size_t>(count));
  }
}

}  // namespace
}  // namespace peerscope::sim
