// Per-peer-pair flow aggregation.
//
// FlowStats is the unit of everything downstream: the contributor
// heuristic, the bandwidth classifier (min inter-packet gap over
// received video packets), the hop estimator (RX TTL), and all
// byte/peer preference counters.
//
// A FlowTable can be built two ways, with identical results:
//   - online, by feeding records as the simulation emits them
//     (memory stays O(#peers), used by the large benches);
//   - offline, from a stored/loaded record vector sorted by time
//     (the faithful "analyse the pcap" path, used by examples/tests).
// Under capture reordering the two agree on packet and byte counts
// only: a late-stamped packet can land after the next train's first
// arrivals, which the online path sees as one negative gap and the
// time-sorted rebuild as two interleaved positive ones, so
// rx_ipg_samples and smallest_rx_ipgs can differ.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"
#include "trace/record.hpp"
#include "util/sim_time.hpp"

namespace peerscope::trace {

/// Quantile-style robust minimum: the smallest IPG after discarding the
/// `discard` smallest samples (capture duplication and reordering
/// fabricate a handful of near-zero gaps per flow; the discarded head
/// absorbs them). `smallest` holds the k smallest observed gaps in
/// ascending order with int64-max padding; `samples` is the total gap
/// count. Returns int64 max when no gap survives.
[[nodiscard]] std::int64_t robust_min_ipg(
    std::span<const std::int64_t> smallest, std::uint64_t samples,
    int discard);

/// Field order keeps the struct at 168 bytes on x86-64: `remote` sits
/// with the TTL bytes instead of padding the head.
struct FlowStats {
  std::uint64_t rx_pkts = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_pkts = 0;
  std::uint64_t tx_bytes = 0;

  std::uint64_t rx_video_pkts = 0;
  std::uint64_t rx_video_bytes = 0;
  std::uint64_t tx_video_pkts = 0;
  std::uint64_t tx_video_bytes = 0;

  /// Minimum gap between consecutive received video packets, the
  /// packet-pair bottleneck signal. int64 max when < 2 video packets.
  std::int64_t min_rx_video_ipg_ns = std::numeric_limits<std::int64_t>::max();

  /// The k smallest RX video IPGs in ascending order (int64-max
  /// padded), for the duplication/reordering-robust estimator.
  static constexpr int kIpgTrack = 5;
  std::array<std::int64_t, kIpgTrack> smallest_rx_ipgs{
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max()};
  /// Total RX video IPG samples observed (rx_video_pkts - 1 per
  /// contiguous run).
  std::uint64_t rx_ipg_samples = 0;
  /// Robust min IPG: see robust_min_ipg(). With discard <= 0 this is
  /// exactly min_rx_video_ipg_ns.
  [[nodiscard]] std::int64_t min_ipg_after_discard(int discard) const {
    if (discard <= 0) return min_rx_video_ipg_ns;
    return robust_min_ipg(smallest_rx_ipgs, rx_ipg_samples, discard);
  }

  net::Ipv4Addr remote;

  /// TTL observed on received packets (stable per path in the model;
  /// the last observation is kept).
  std::uint8_t rx_ttl = 0;
  bool saw_rx = false;

  /// Misra–Gries majority tracking over RX TTL values: under
  /// corruption, a handful of flipped TTL bytes must not move the hop
  /// estimate the way last-seen does. On a clean trace the mode equals
  /// rx_ttl.
  std::array<std::uint8_t, 3> ttl_candidates{};
  std::array<std::int32_t, 3> ttl_counts{};
  [[nodiscard]] std::uint8_t rx_ttl_mode() const;

  util::SimTime first_ts = util::SimTime::max();
  util::SimTime last_ts = util::SimTime::zero();
  /// Last RX video timestamp, the online IPG update's anchor; only
  /// meaningful once rx_video_pkts > 0.
  util::SimTime last_rx_video_ts = util::SimTime::zero();

  [[nodiscard]] bool has_min_ipg() const {
    return min_rx_video_ipg_ns !=
           std::numeric_limits<std::int64_t>::max();
  }
};

/// All flows observed at one probe, keyed by remote address.
class FlowTable {
 public:
  explicit FlowTable(net::Ipv4Addr probe) : probe_(probe) {}

  [[nodiscard]] net::Ipv4Addr probe() const { return probe_; }

  /// Online update with one record. Records for the same remote must
  /// arrive in non-decreasing timestamp order for the IPG tracking to
  /// match the offline path (the simulator guarantees this per remote
  /// unless capture reordering is on).
  void add(const PacketRecord& record);

  /// Online update with one video train to or from `remote`: one record
  /// per timestamp, each `bytes` long, RX records carrying `ttl`. Equal
  /// to feeding those records through add() one by one, at one flow
  /// lookup per train. `timestamps` must be non-decreasing (a train's
  /// arrivals or departures); an empty span creates no flow.
  void add_train(net::Ipv4Addr remote, Direction dir,
                 std::span<const util::SimTime> timestamps,
                 std::int32_t bytes, std::uint8_t ttl);

  /// Offline build: sorts a copy of `records` by time and feeds it.
  [[nodiscard]] static FlowTable from_records(
      net::Ipv4Addr probe, std::span<const PacketRecord> records);

  [[nodiscard]] const FlowStats* find(net::Ipv4Addr remote) const;
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  [[nodiscard]] const std::unordered_map<net::Ipv4Addr, FlowStats>& flows()
      const {
    return flows_;
  }

  /// Totals over all flows (Table II inputs).
  [[nodiscard]] std::uint64_t total_rx_bytes() const { return total_rx_bytes_; }
  [[nodiscard]] std::uint64_t total_tx_bytes() const { return total_tx_bytes_; }
  [[nodiscard]] std::uint64_t total_rx_pkts() const { return total_rx_pkts_; }
  [[nodiscard]] std::uint64_t total_tx_pkts() const { return total_tx_pkts_; }

 private:
  /// The flow for `remote` (created on first use), its time span
  /// widened to [first, last].
  FlowStats& touch(net::Ipv4Addr remote, util::SimTime first,
                   util::SimTime last);
  /// Adds `pkts` packets totalling `bytes` to the flow and the table.
  void count(FlowStats& f, Direction dir, bool video, std::uint64_t pkts,
             std::uint64_t bytes);

  net::Ipv4Addr probe_;
  std::unordered_map<net::Ipv4Addr, FlowStats> flows_;
  std::uint64_t total_rx_bytes_ = 0;
  std::uint64_t total_tx_bytes_ = 0;
  std::uint64_t total_rx_pkts_ = 0;
  std::uint64_t total_tx_pkts_ = 0;
};

}  // namespace peerscope::trace
