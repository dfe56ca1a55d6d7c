#include "trace/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "p2p/swarm.hpp"
#include "util/rng.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;
using util::SimTime;

const Ipv4Addr kProbe{10, 0, 0, 1};
const Ipv4Addr kPeerA{20, 0, 0, 1};
const Ipv4Addr kPeerB{20, 0, 0, 2};

PacketRecord video_rx(Ipv4Addr remote, std::int64_t ts_ns,
                      std::uint8_t ttl = 110, std::int32_t bytes = 1250) {
  return {SimTime{ts_ns}, remote, bytes, Direction::kRx,
          sim::PacketKind::kVideo, ttl};
}

PacketRecord sig_tx(Ipv4Addr remote, std::int64_t ts_ns,
                    std::int32_t bytes = 120) {
  return {SimTime{ts_ns}, remote, bytes, Direction::kTx,
          sim::PacketKind::kSignaling, 128};
}

TEST(FlowTable, AggregatesPerRemote) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1000));
  table.add(video_rx(kPeerA, 2000));
  table.add(sig_tx(kPeerA, 3000));
  table.add(video_rx(kPeerB, 1500));

  EXPECT_EQ(table.flow_count(), 2u);
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rx_pkts, 2u);
  EXPECT_EQ(a->rx_bytes, 2500u);
  EXPECT_EQ(a->rx_video_pkts, 2u);
  EXPECT_EQ(a->tx_pkts, 1u);
  EXPECT_EQ(a->tx_bytes, 120u);
  EXPECT_EQ(a->tx_video_pkts, 0u);
}

TEST(FlowTable, MinIpgTracksConsecutiveVideoGaps) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1'000'000));
  table.add(video_rx(kPeerA, 1'500'000));   // gap 500 us
  table.add(video_rx(kPeerA, 9'000'000));   // gap 7.5 ms
  table.add(video_rx(kPeerA, 9'100'000));   // gap 100 us  <- min
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->has_min_ipg());
  EXPECT_EQ(a->min_rx_video_ipg_ns, 100'000);
}

TEST(FlowTable, MinIpgUndefinedWithOneVideoPacket) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1000));
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->has_min_ipg());
}

TEST(FlowTable, SignalingDoesNotAffectIpg) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1'000'000));
  PacketRecord sig = video_rx(kPeerA, 1'000'100);
  sig.kind = sim::PacketKind::kSignaling;
  table.add(sig);
  table.add(video_rx(kPeerA, 3'000'000));
  const FlowStats* a = table.find(kPeerA);
  EXPECT_EQ(a->min_rx_video_ipg_ns, 2'000'000);
}

TEST(FlowTable, IpgIsPerRemote) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1'000'000));
  table.add(video_rx(kPeerB, 1'000'050));
  table.add(video_rx(kPeerA, 2'000'000));
  EXPECT_EQ(table.find(kPeerA)->min_rx_video_ipg_ns, 1'000'000);
  EXPECT_FALSE(table.find(kPeerB)->has_min_ipg());
}

TEST(FlowTable, TracksRxTtlAndTimestamps) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 5000, 107));
  table.add(sig_tx(kPeerA, 9000));
  const FlowStats* a = table.find(kPeerA);
  EXPECT_TRUE(a->saw_rx);
  EXPECT_EQ(a->rx_ttl, 107);
  EXPECT_EQ(a->first_ts.ns(), 5000);
  EXPECT_EQ(a->last_ts.ns(), 9000);
}

TEST(FlowTable, TxOnlyFlowHasNoRxTtl) {
  FlowTable table{kProbe};
  table.add(sig_tx(kPeerA, 1000));
  EXPECT_FALSE(table.find(kPeerA)->saw_rx);
}

TEST(FlowTable, Totals) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1000));
  table.add(video_rx(kPeerB, 2000));
  table.add(sig_tx(kPeerA, 3000));
  EXPECT_EQ(table.total_rx_pkts(), 2u);
  EXPECT_EQ(table.total_rx_bytes(), 2500u);
  EXPECT_EQ(table.total_tx_pkts(), 1u);
  EXPECT_EQ(table.total_tx_bytes(), 120u);
}

TEST(FlowTable, OfflineEqualsOnline) {
  // Property: feeding shuffled records through from_records (which
  // sorts) produces identical aggregates to in-order online feeding.
  util::Rng rng{99};
  std::vector<PacketRecord> records;
  std::int64_t ts = 0;
  for (int i = 0; i < 2000; ++i) {
    ts += static_cast<std::int64_t>(rng.below(500'000)) + 1;
    const Ipv4Addr remote = rng.chance(0.5) ? kPeerA : kPeerB;
    PacketRecord r;
    r.ts = SimTime{ts};
    r.remote = remote;
    r.bytes = rng.chance(0.8) ? 1250 : 120;
    r.kind = r.bytes == 1250 ? sim::PacketKind::kVideo
                             : sim::PacketKind::kSignaling;
    r.dir = rng.chance(0.7) ? Direction::kRx : Direction::kTx;
    r.ttl = static_cast<std::uint8_t>(100 + rng.below(20));
    records.push_back(r);
  }

  FlowTable online{kProbe};
  for (const auto& r : records) online.add(r);

  std::vector<PacketRecord> shuffled = records;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const FlowTable offline = FlowTable::from_records(kProbe, shuffled);

  ASSERT_EQ(offline.flow_count(), online.flow_count());
  for (const auto& [remote, off] : offline.flows()) {
    const FlowStats* on = online.find(remote);
    ASSERT_NE(on, nullptr);
    EXPECT_EQ(off.rx_pkts, on->rx_pkts);
    EXPECT_EQ(off.rx_bytes, on->rx_bytes);
    EXPECT_EQ(off.tx_pkts, on->tx_pkts);
    EXPECT_EQ(off.rx_video_pkts, on->rx_video_pkts);
    EXPECT_EQ(off.min_rx_video_ipg_ns, on->min_rx_video_ipg_ns);
    EXPECT_EQ(off.first_ts, on->first_ts);
    EXPECT_EQ(off.last_ts, on->last_ts);
  }
  EXPECT_EQ(offline.total_rx_bytes(), online.total_rx_bytes());
  EXPECT_EQ(offline.total_tx_bytes(), online.total_tx_bytes());
}

#if defined(__x86_64__)
// The online tables of a full-scale run hold one FlowStats per observed
// peer; the field order keeps the struct from growing.
static_assert(sizeof(FlowStats) == 168);
#endif

void expect_same_counts(const FlowStats& a, const FlowStats& b) {
  EXPECT_EQ(a.remote, b.remote);
  EXPECT_EQ(a.rx_pkts, b.rx_pkts);
  EXPECT_EQ(a.rx_bytes, b.rx_bytes);
  EXPECT_EQ(a.tx_pkts, b.tx_pkts);
  EXPECT_EQ(a.tx_bytes, b.tx_bytes);
  EXPECT_EQ(a.rx_video_pkts, b.rx_video_pkts);
  EXPECT_EQ(a.rx_video_bytes, b.rx_video_bytes);
  EXPECT_EQ(a.tx_video_pkts, b.tx_video_pkts);
  EXPECT_EQ(a.tx_video_bytes, b.tx_video_bytes);
}

void expect_same_flow(const FlowStats& a, const FlowStats& b) {
  expect_same_counts(a, b);
  EXPECT_EQ(a.min_rx_video_ipg_ns, b.min_rx_video_ipg_ns);
  EXPECT_EQ(a.smallest_rx_ipgs, b.smallest_rx_ipgs);
  EXPECT_EQ(a.rx_ipg_samples, b.rx_ipg_samples);
  EXPECT_EQ(a.rx_ttl, b.rx_ttl);
  EXPECT_EQ(a.saw_rx, b.saw_rx);
  EXPECT_EQ(a.ttl_candidates, b.ttl_candidates);
  EXPECT_EQ(a.ttl_counts, b.ttl_counts);
  EXPECT_EQ(a.first_ts, b.first_ts);
  EXPECT_EQ(a.last_ts, b.last_ts);
  if (a.rx_video_pkts > 0) {
    EXPECT_EQ(a.last_rx_video_ts, b.last_rx_video_ts);
  }
}

/// Same flows, each compared with `same_flow`, and the same totals.
void expect_same_table(
    const FlowTable& a, const FlowTable& b,
    void (*same_flow)(const FlowStats&, const FlowStats&) = expect_same_flow) {
  ASSERT_EQ(a.flow_count(), b.flow_count());
  for (const auto& [remote, fa] : a.flows()) {
    const FlowStats* fb = b.find(remote);
    ASSERT_NE(fb, nullptr) << remote.to_string();
    SCOPED_TRACE(remote.to_string());
    same_flow(fa, *fb);
  }
  EXPECT_EQ(a.total_rx_pkts(), b.total_rx_pkts());
  EXPECT_EQ(a.total_rx_bytes(), b.total_rx_bytes());
  EXPECT_EQ(a.total_tx_pkts(), b.total_tx_pkts());
  EXPECT_EQ(a.total_tx_bytes(), b.total_tx_bytes());
}

/// True when an RX record with `ttl` would take the Misra–Gries
/// decrement branch of `f`: every slot live, none holding `ttl`.
bool decrements(const FlowStats& f, std::uint8_t ttl) {
  for (std::size_t i = 0; i < f.ttl_counts.size(); ++i) {
    if (f.ttl_counts[i] == 0 || f.ttl_candidates[i] == ttl) return false;
  }
  return true;
}

TEST(FlowTable, TrainUpdateEqualsPerPacketUpdate) {
  // Property: a random mix of RX and TX video trains (some with sorted
  // capture artifacts, some empty, some overlapping the previous train
  // of the same remote) and interleaved signaling gives the same table
  // through add_train as through add() record by record.
  util::Rng rng{2024};
  const std::vector<Ipv4Addr> remotes = {kPeerA, kPeerB,
                                         Ipv4Addr{20, 0, 0, 3},
                                         Ipv4Addr{20, 0, 0, 4}};
  // Five TTL values against three Misra–Gries slots.
  const std::uint8_t ttls[] = {100, 101, 102, 103, 104};
  std::vector<std::int64_t> clock(remotes.size(), 1'000'000);
  FlowTable by_train{kProbe};
  FlowTable by_packet{kProbe};
  int decrement_trains = 0, overlapping = 0, empty = 0;
  constexpr auto kTxTtl = static_cast<std::uint8_t>(sim::kInitialTtl);
  std::vector<SimTime> ts;
  for (int step = 0; step < 4000; ++step) {
    const std::size_t r = rng.below(remotes.size());
    const Ipv4Addr remote = remotes[r];
    const std::uint8_t ttl = ttls[rng.below(5)];
    const double kind = rng.uniform01();
    if (kind < 0.25) {
      // Signaling in either direction, fed to both tables alike.
      const bool rx = rng.chance(0.5);
      clock[r] += static_cast<std::int64_t>(rng.below(3'000'000));
      const PacketRecord sig{SimTime{clock[r]}, remote, 120,
                             rx ? Direction::kRx : Direction::kTx,
                             sim::PacketKind::kSignaling,
                             rx ? ttl : kTxTtl};
      by_train.add(sig);
      by_packet.add(sig);
      continue;
    }
    const bool rx = kind < 0.8;
    const auto n = static_cast<int>(rng.below(30));  // 0 = fully lost
    // Occasionally start before the previous train of this remote ended:
    // the first gap across the two trains is negative.
    std::int64_t t = clock[r];
    if (rng.chance(0.1)) {
      t -= static_cast<std::int64_t>(rng.below(4'000'000));
      ++overlapping;
    } else {
      t += static_cast<std::int64_t>(rng.below(50'000'000));
    }
    ts.clear();
    const auto gap = static_cast<std::int64_t>(50'000 + rng.below(2'000'000));
    for (int i = 0; i < n; ++i) {
      t += gap + static_cast<std::int64_t>(rng.below(30'000));
      ts.push_back(SimTime{t});
      if (rx && rng.chance(0.1)) {
        // Capture artifact: a duplicate or a late-stamped copy.
        ts.push_back(SimTime{t + static_cast<std::int64_t>(
                                     rng.below(2'000'000))});
      }
    }
    std::sort(ts.begin(), ts.end());
    if (!ts.empty()) clock[r] = std::max(clock[r], ts.back().ns());
    if (ts.empty()) ++empty;
    const std::size_t flows_before = by_train.flow_count();
    const FlowStats* before = by_packet.find(remote);
    if (rx && !ts.empty() && before != nullptr && decrements(*before, ttl)) {
      ++decrement_trains;
    }
    const Direction dir = rx ? Direction::kRx : Direction::kTx;
    by_train.add_train(remote, dir, ts, 1250, ttl);
    for (const SimTime at : ts) {
      by_packet.add({at, remote, 1250, dir, sim::PacketKind::kVideo,
                     rx ? ttl : kTxTtl});
    }
    if (ts.empty()) {
      ASSERT_EQ(by_train.flow_count(), flows_before);
      ASSERT_EQ(by_train.find(remote) == nullptr, before == nullptr);
    }
    if (step % 97 == 0) {
      SCOPED_TRACE(step);
      expect_same_table(by_train, by_packet);
    }
  }
  expect_same_table(by_train, by_packet);
  // The generator reached every branch the property is about.
  EXPECT_GT(decrement_trains, 10);
  EXPECT_GT(overlapping, 100);
  EXPECT_GT(empty, 10);
}

TEST(FlowTable, EmptyTrainCreatesNoFlow) {
  FlowTable table{kProbe};
  table.add_train(kPeerA, Direction::kRx, {}, 1250, 110);
  table.add_train(kPeerA, Direction::kTx, {}, 1250, 128);
  EXPECT_EQ(table.flow_count(), 0u);
  EXPECT_EQ(table.total_rx_pkts() + table.total_tx_pkts(), 0u);
}

TEST(FlowTable, TrainTtlClosedFormFollowsMisraGries) {
  // Hand-worked trace: 5x100, 3x101, 2x102 fill the slots (5, 3, 2);
  // 1x103 decrements all (4, 2, 1); 4x103 spends 1 freeing slot 2,
  // then claims it with the remaining 3 (3, 1, 3); 2x101 adds (3, 3, 3).
  FlowTable table{kProbe};
  std::int64_t t = 0;
  const auto train = [&](int n, std::uint8_t ttl) {
    std::vector<SimTime> ts;
    for (int i = 0; i < n; ++i) ts.push_back(SimTime{t += 1000});
    table.add_train(kPeerA, Direction::kRx, ts, 1250, ttl);
  };
  train(5, 100);
  train(3, 101);
  train(2, 102);
  train(1, 103);
  const FlowStats& f = *table.find(kPeerA);
  EXPECT_EQ(f.ttl_counts, (std::array<std::int32_t, 3>{4, 2, 1}));
  train(4, 103);
  EXPECT_EQ(f.ttl_candidates, (std::array<std::uint8_t, 3>{100, 101, 103}));
  EXPECT_EQ(f.ttl_counts, (std::array<std::int32_t, 3>{3, 1, 3}));
  train(2, 101);
  EXPECT_EQ(f.ttl_counts, (std::array<std::int32_t, 3>{3, 3, 3}));
  EXPECT_EQ(f.rx_ttl, 101);
  EXPECT_EQ(f.rx_ipg_samples, 16u);
  EXPECT_EQ(f.min_rx_video_ipg_ns, 1000);
}

TEST(FlowTable, OfflineEqualsOnlineForAnImpairedSwarm) {
  // The capture path's online tables (train updates) against the
  // offline rebuild from the stored records, under bursty loss,
  // duplication and outages: every field agrees. Adding capture
  // reordering narrows that to the packet and byte counts (flow.hpp):
  // a late-stamped last packet can land after the next train's first
  // arrivals, which the online path sees as one negative gap and the
  // time-sorted rebuild as two interleaved positive ones.
  static const net::AsTopology topo = net::make_reference_topology();
  const auto check = [](double reorder_rate,
                        void (*same_flow)(const FlowStats&,
                                          const FlowStats&)) {
    p2p::SwarmConfig cfg;
    cfg.profile = p2p::SystemProfile::tvants();
    cfg.profile.population.background_peers = 200;
    cfg.seed = 11;
    cfg.duration = SimTime::seconds(30);
    cfg.keep_records = true;
    cfg.impairment.loss_rate = 0.03;
    cfg.impairment.loss_burst = 3.0;
    cfg.impairment.duplicate_rate = 0.05;
    cfg.impairment.outage_per_s = 0.05;
    cfg.impairment.reorder_rate = reorder_rate;
    p2p::Swarm swarm{topo, p2p::table1_probes(), cfg};
    swarm.run();
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
      const ProbeSink& sink = swarm.sink(i);
      records += sink.records().size();
      SCOPED_TRACE(sink.probe().to_string());
      expect_same_table(FlowTable::from_records(sink.probe(), sink.records()),
                        sink.flows(), same_flow);
    }
    EXPECT_GT(records, 100'000u);
  };
  check(0.0, expect_same_flow);
  SCOPED_TRACE("reorder_rate 0.05");
  check(0.05, expect_same_counts);
}

TEST(RecordOrdering, TotalOrder) {
  const PacketRecord a = video_rx(kPeerA, 100);
  const PacketRecord b = video_rx(kPeerA, 200);
  EXPECT_TRUE(record_before(a, b));
  EXPECT_FALSE(record_before(b, a));
  const PacketRecord c = video_rx(kPeerB, 100);
  EXPECT_TRUE(record_before(a, c));  // same ts, smaller remote first
  PacketRecord d = a;
  d.dir = Direction::kTx;
  EXPECT_TRUE(record_before(a, d));  // RX before TX at equal (ts, remote)
}

}  // namespace
}  // namespace peerscope::trace
