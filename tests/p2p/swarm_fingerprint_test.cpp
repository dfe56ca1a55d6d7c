// Fixed-seed fingerprints of whole swarm runs: every ground-truth
// counter and every field of every probe's FlowTable (flows sorted by
// remote), hashed. The constants pin byte-identity across refactors of
// the capture, scheduling, path and train layers: a change that moves
// any RNG draw, any packet timestamp or any per-flow statistic changes
// a hash. A change that alters fixed-seed outputs on purpose must say
// so and update these constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "p2p/swarm.hpp"

namespace peerscope::p2p {
namespace {

using util::SimTime;

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_counters(Fingerprint& fp, const Swarm::Counters& c) {
  for (const std::uint64_t v :
       {c.chunks_delivered, c.chunks_duplicate, c.chunks_uploaded,
        c.requests_refused, c.contacts, c.timeouts, c.contact_failures,
        c.probe_crashes, c.chunks_retried, c.partners_blacklisted}) {
    fp.add(v);
  }
  const DiscoveryCounters& d = c.discovery;
  for (const std::uint64_t v :
       {d.tracker_queries, d.tracker_failures, d.dht_lookups, d.dht_hops,
        d.dht_hop_timeouts, d.dht_evictions, d.gossip_exchanges,
        d.gossip_partitions, d.failovers, d.recoveries, d.joins_ok,
        d.join_retries, d.nat_direct, d.nat_relayed, d.nat_blocked,
        d.flash_arrivals}) {
    fp.add(v);
  }
}

void add_flow(Fingerprint& fp, const trace::FlowStats& f) {
  fp.add(f.remote.bits());
  for (const std::uint64_t v :
       {f.rx_pkts, f.rx_bytes, f.tx_pkts, f.tx_bytes, f.rx_video_pkts,
        f.rx_video_bytes, f.tx_video_pkts, f.tx_video_bytes}) {
    fp.add(v);
  }
  fp.add_signed(f.min_rx_video_ipg_ns);
  for (const std::int64_t gap : f.smallest_rx_ipgs) fp.add_signed(gap);
  fp.add(f.rx_ipg_samples);
  fp.add(f.rx_ttl);
  fp.add(f.saw_rx ? 1 : 0);
  for (std::size_t i = 0; i < f.ttl_candidates.size(); ++i) {
    fp.add(f.ttl_candidates[i]);
    fp.add_signed(f.ttl_counts[i]);
  }
  fp.add_signed(f.first_ts.ns());
  fp.add_signed(f.last_ts.ns());
}

std::uint64_t fingerprint(const Swarm& swarm) {
  Fingerprint fp;
  add_counters(fp, swarm.counters());
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const trace::FlowTable& table = swarm.sink(i).flows();
    fp.add(table.probe().bits());
    fp.add(table.flow_count());
    std::vector<const trace::FlowStats*> flows;
    flows.reserve(table.flow_count());
    for (const auto& [remote, stats] : table.flows()) flows.push_back(&stats);
    std::sort(flows.begin(), flows.end(),
              [](const trace::FlowStats* a, const trace::FlowStats* b) {
                return a->remote < b->remote;
              });
    for (const trace::FlowStats* f : flows) add_flow(fp, *f);
  }
  return fp.value();
}

/// Impairment (bursty loss, capture reordering and duplication,
/// outages), probe and audience churn, connection failures, and a
/// tracker backend with a gossip fallback, an outage, NAT traversal
/// and a flash crowd: every optional code path of the swarm at once.
void impair(SwarmConfig& cfg) {
  cfg.impairment.loss_rate = 0.02;
  cfg.impairment.loss_burst = 3.0;
  cfg.impairment.reorder_rate = 0.03;
  cfg.impairment.duplicate_rate = 0.02;
  cfg.impairment.outage_per_s = 0.02;
  cfg.churn.probe_session_s = 25.0;
  cfg.churn.probe_downtime_s = 2.0;
  cfg.churn.bg_session_s = 40.0;
  cfg.churn.bg_downtime_s = 10.0;
  cfg.churn.nat_connect_failure = 0.2;
  cfg.churn.firewall_connect_failure = 0.1;
  cfg.discovery.primary = DiscoveryBackendKind::kTracker;
  cfg.discovery.fallback = DiscoveryBackendKind::kGossip;
  cfg.discovery.tracker_outage_start = SimTime::seconds(10);
  cfg.discovery.tracker_outage_duration = SimTime::seconds(15);
  cfg.discovery.nat.enabled = true;
  cfg.discovery.flash_crowd_at = SimTime::seconds(35);
  cfg.discovery.flash_crowd_arrivals = 20;
}

struct Case {
  const char* name;
  SystemProfile (*profile)();
  int background_peers;
  bool impaired;
  std::uint64_t expected;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class SwarmFingerprint : public ::testing::TestWithParam<Case> {};

TEST_P(SwarmFingerprint, MatchesPinnedConstant) {
  static const net::AsTopology topo = net::make_reference_topology();
  const Case& c = GetParam();
  SwarmConfig cfg;
  cfg.profile = c.profile();
  cfg.profile.population.background_peers = c.background_peers;
  cfg.seed = 42;
  cfg.duration = SimTime::seconds(60);
  if (c.impaired) impair(cfg);
  Swarm swarm{topo, table1_probes(), cfg};
  swarm.run();
  const Swarm::Counters& counters = swarm.counters();
  ASSERT_GT(counters.chunks_delivered, 0u);
  if (c.impaired) {
    // The fault paths really ran, so the hash covers them.
    EXPECT_GT(counters.probe_crashes, 0u);
    EXPECT_GT(counters.chunks_retried, 0u);
    EXPECT_GT(counters.contact_failures, 0u);
    EXPECT_GT(counters.discovery.tracker_failures, 0u);
    EXPECT_GT(counters.discovery.flash_arrivals, 0u);
  }
  EXPECT_EQ(fingerprint(swarm), c.expected)
      << std::hex << "0x" << fingerprint(swarm);
}

// napawine_prototype is the one profile with a low-RTT selection
// weight, so it pins the RTT-probing candidate path too.
INSTANTIATE_TEST_SUITE_P(
    FixedSeed, SwarmFingerprint,
    ::testing::Values(
        Case{"PPLiveClean", SystemProfile::pplive, 1500, false,
             0xdd6b6ba8f0b86854ULL},
        Case{"SopCastClean", SystemProfile::sopcast, 400, false,
             0xf26bbe4e0c080e65ULL},
        Case{"TVAntsClean", SystemProfile::tvants, 200, false,
             0xc240baee2ceba6b3ULL},
        Case{"NapaWineClean", SystemProfile::napawine_prototype, 300, false,
             0x3cee1ad5012c1d7bULL},
        Case{"PPLiveImpaired", SystemProfile::pplive, 1500, true,
             0x9ad135ca27b59496ULL},
        Case{"SopCastImpaired", SystemProfile::sopcast, 400, true,
             0x2ee90d6777006772ULL},
        Case{"TVAntsImpaired", SystemProfile::tvants, 200, true,
             0x69c58609ad431b6bULL},
        Case{"NapaWineImpaired", SystemProfile::napawine_prototype, 300,
             true, 0x81e14f47ed4d11daULL}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string{param_info.param.name};
    });

}  // namespace
}  // namespace peerscope::p2p
