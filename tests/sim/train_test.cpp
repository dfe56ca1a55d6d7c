#include "sim/train.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/packet.hpp"

namespace peerscope::sim {
namespace {

using net::AccessLink;
using net::PathInfo;
using util::Rng;
using util::SimTime;

PathInfo flat_path(int hops = 10, SimTime delay = SimTime::millis(20)) {
  return {hops, delay};
}

TrainSpec spec13(SimTime start = SimTime::zero()) {
  TrainSpec spec;
  spec.start = start;
  spec.packet_count = 13;
  spec.packet_bytes = 1250;
  spec.jitter_max = SimTime::zero();  // deterministic timing for asserts
  return spec;
}

std::int64_t min_gap(const std::vector<SimTime>& arrivals) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    best = std::min(best, (arrivals[i] - arrivals[i - 1]).ns());
  }
  return best;
}

TEST(Train, ArrivalsAreMonotoneAndComplete) {
  AccessLink sender = AccessLink::lan100();
  AccessLink receiver = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{1};
  TrainResult r;
  transmit_train(spec13(), sender, up, receiver, down, flat_path(), rng, r);
  ASSERT_EQ(r.arrivals.size(), 13u);
  ASSERT_EQ(r.departures.size(), 13u);
  EXPECT_TRUE(std::is_sorted(r.arrivals.begin(), r.arrivals.end()));
  EXPECT_TRUE(std::is_sorted(r.departures.begin(), r.departures.end()));
  EXPECT_EQ(r.completed(), r.arrivals.back());
}

TEST(Train, LanToLanGapIsLanSerialisation) {
  AccessLink sender = AccessLink::lan100();
  AccessLink receiver = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{1};
  TrainResult r;
  transmit_train(spec13(), sender, up, receiver, down, flat_path(), rng, r);
  // 1250 B at 100 Mb/s = 100 us spacing at both ends.
  EXPECT_EQ(min_gap(r.arrivals), 100'000);
}

TEST(Train, SlowSenderSetsTheGap) {
  // DSL uplink 384 kb/s: ~26 ms per packet; classified low-bandwidth.
  AccessLink sender = AccessLink::dsl(4, 0.384);
  AccessLink receiver = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{1};
  TrainResult r;
  transmit_train(spec13(), sender, up, receiver, down, flat_path(), rng, r);
  EXPECT_EQ(min_gap(r.arrivals), 26'041'667);
  EXPECT_GT(min_gap(r.arrivals), 1'000'000);  // > 1 ms -> low-bandwidth
}

TEST(Train, TwentyMbpsSenderIsHighBandwidth) {
  AccessLink sender{net::AccessKind::kLan, 20'000'000, 20'000'000,
                    20'000'000, false, false};
  AccessLink receiver = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{1};
  TrainResult r;
  transmit_train(spec13(), sender, up, receiver, down, flat_path(), rng, r);
  // 1250 B at 20 Mb/s = 500 us < 1 ms -> high-bandwidth.
  EXPECT_EQ(min_gap(r.arrivals), 500'000);
}

TEST(Train, ShapedDslReceiverMeasuresLineRate) {
  // High-bw sender into a 4 Mb/s DSL plan: bursts pass the last mile at
  // the 24 Mb/s line rate, so min IPG stays below the 1 ms threshold.
  AccessLink sender = AccessLink::lan100();
  AccessLink receiver = AccessLink::dsl(4, 0.384);
  LinkCursor up, down;
  Rng rng{1};
  TrainResult r;
  transmit_train(spec13(), sender, up, receiver, down, flat_path(), rng, r);
  EXPECT_EQ(min_gap(r.arrivals), 416'667);  // 1250 B at 24 Mb/s
  EXPECT_LT(min_gap(r.arrivals), 1'000'000);
}

TEST(Train, ConcurrentTrainsDoNotInterleaveOnUplink) {
  // Two chunks to two receivers: the second train queues behind the
  // first, and both keep their in-train spacing.
  AccessLink sender{net::AccessKind::kLan, 20'000'000, 20'000'000,
                    20'000'000, false, false};
  AccessLink receiver = AccessLink::lan100();
  LinkCursor up, down_a, down_b;
  Rng rng{1};
  TrainResult a;
  transmit_train(spec13(), sender, up, receiver, down_a, flat_path(), rng, a);
  TrainResult b;
  transmit_train(spec13(), sender, up, receiver, down_b, flat_path(), rng, b);
  EXPECT_EQ(min_gap(a.arrivals), 500'000);
  EXPECT_EQ(min_gap(b.arrivals), 500'000);
  // Train b waited for a's full serialisation.
  EXPECT_GE(b.departures.front().ns(),
            a.departures.back().ns() + 500'000 - 1);
}

TEST(Train, PathDelayShiftsArrivals) {
  AccessLink link = AccessLink::lan100();
  LinkCursor up1, down1, up2, down2;
  Rng rng1{1}, rng2{1};
  TrainResult near;
  transmit_train(spec13(), link, up1, link, down1,
                 flat_path(5, SimTime::millis(10)), rng1, near);
  TrainResult far;
  transmit_train(spec13(), link, up2, link, down2,
                 flat_path(5, SimTime::millis(150)), rng2, far);
  EXPECT_EQ((far.arrivals.front() - near.arrivals.front()),
            SimTime::millis(140));
}

TEST(Train, JitterNeverReordersArrivals) {
  AccessLink sender = AccessLink::lan100();
  AccessLink receiver = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{7};
  TrainSpec spec = spec13();
  spec.jitter_max = SimTime::micros(500);  // bigger than the 100 us gap
  TrainResult r;  // reused across trains, as the swarm does
  for (int i = 0; i < 20; ++i) {
    transmit_train(spec, sender, up, receiver, down, flat_path(), rng, r);
    EXPECT_TRUE(std::is_sorted(r.arrivals.begin(), r.arrivals.end()));
  }
}

TEST(Train, StartInFutureRespected) {
  AccessLink link = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{1};
  TrainResult r;
  transmit_train(spec13(SimTime::seconds(5)), link, up, link, down,
                 flat_path(), rng, r);
  EXPECT_GE(r.departures.front(), SimTime::seconds(5));
}

TEST(Train, RejectsEmptyTrain) {
  AccessLink link = AccessLink::lan100();
  LinkCursor up, down;
  Rng rng{1};
  TrainSpec bad = spec13();
  TrainResult out;
  bad.packet_count = 0;
  EXPECT_THROW(
      transmit_train(bad, link, up, link, down, flat_path(), rng, out),
      std::invalid_argument);
  bad.packet_count = 5;
  bad.packet_bytes = 0;
  EXPECT_THROW(
      transmit_train(bad, link, up, link, down, flat_path(), rng, out),
      std::invalid_argument);
}

TEST(Train, ReusedResultEqualsAFreshOne) {
  // One TrainResult carried across impaired trains (reordering and
  // duplication fill its artifact scratch, loss empties some) must hold
  // exactly what a fresh result would after each call.
  AccessLink link = AccessLink::lan100();
  LinkCursor up_a, down_a, up_b, down_b;
  Rng rng_a{5}, rng_b{5};
  TrainSpec spec = spec13();
  spec.impairment.loss_rate = 0.3;
  spec.impairment.reorder_rate = 0.2;
  spec.impairment.duplicate_rate = 0.2;
  TrainResult reused;
  for (int i = 0; i < 50; ++i) {
    spec.packet_count = 1 + (i * 7) % 20;
    spec.start = SimTime::millis(10 * i);
    transmit_train(spec, link, up_a, link, down_a, flat_path(), rng_a,
                   reused);
    TrainResult fresh;
    transmit_train(spec, link, up_b, link, down_b, flat_path(), rng_b, fresh);
    ASSERT_EQ(reused.arrivals, fresh.arrivals) << "train " << i;
    ASSERT_EQ(reused.departures, fresh.departures) << "train " << i;
    ASSERT_EQ(reused.sender_done, fresh.sender_done) << "train " << i;
  }
}

TEST(TtlAfter, DecrementsAndSaturates) {
  EXPECT_EQ(ttl_after(0), 128);
  EXPECT_EQ(ttl_after(19), 109);
  EXPECT_EQ(ttl_after(127), 1);
  EXPECT_EQ(ttl_after(1000), 1);
}

}  // namespace
}  // namespace peerscope::sim
