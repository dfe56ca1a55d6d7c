// Packet-train transmission timing.
//
// A video chunk is sent as a burst of back-to-back packets. This module
// computes, without scheduling per-packet events, the receiver-side
// arrival timestamp of every packet in the burst: sender uplink
// serialisation -> path propagation (+ small jitter) -> receiver
// downlink serialisation. The resulting inter-packet gaps carry the
// path-bottleneck signature the paper's packet-pair classifier
// (min IPG < 1 ms <=> > 10 Mb/s) measures.
#pragma once

#include <cstdint>
#include <vector>

#include "net/access.hpp"
#include "net/topology.hpp"
#include "sim/impairment.hpp"
#include "sim/link.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace peerscope::sim {

struct TrainSpec {
  util::SimTime start;            // earliest sender release time
  int packet_count = 1;
  std::int32_t packet_bytes = 0;
  /// Peak of the per-packet forward jitter (uniform in [0, max)).
  util::SimTime jitter_max = util::SimTime::micros(30);
  /// Path fault injection: bursty loss, capture reordering and
  /// duplication, transient outages. Lost packets consume uplink
  /// capacity and appear in `departures` but never arrive (no receiver
  /// record — exactly what a vantage-point sniffer would miss). The
  /// default spec is fully disabled and reproduces the clean path
  /// bit-for-bit.
  ImpairmentSpec impairment;
  /// Identifies the receiver link for the deterministic outage
  /// schedule (callers key it on the receiver host).
  std::uint64_t link_key = 0;
};

/// One expanded train. Callers keep one and pass it to every
/// transmit_train call, so the vectors' capacity is reused and a train
/// allocates nothing once the buffers have grown.
struct TrainResult {
  /// Receiver-side arrival time of each packet, non-decreasing.
  std::vector<util::SimTime> arrivals;
  /// Sender-side departure time of each packet (uplink serialisation
  /// finished) — what a sniffer at the sender timestamps for TX.
  std::vector<util::SimTime> departures;
  /// When the sender uplink finished serialising the last packet.
  util::SimTime sender_done{0};
  /// Scratch: capture artifacts (reordered/duplicated records) before
  /// they are merged into `arrivals`.
  std::vector<util::SimTime> artifacts;
  /// Packet fates of this train, for the caller to tally: dropped in
  /// flight by loss, dropped by a receiver-link outage, recorded late
  /// by capture reordering, recorded twice by capture duplication.
  std::uint64_t lost = 0;
  std::uint64_t outage_dropped = 0;
  std::uint64_t reordered = 0;
  std::uint64_t duplicated = 0;
  /// When the last packet was fully received (== arrivals.back()).
  [[nodiscard]] util::SimTime completed() const {
    return arrivals.empty() ? util::SimTime::zero() : arrivals.back();
  }
};

/// Simulates one burst from `sender` to `receiver` over `path`,
/// advancing both link cursors, and overwrites `out` with it.
/// Deterministic given the RNG state. `channel` carries Gilbert–Elliott
/// burst state across trains on the same directed pair; pass nullptr
/// for a memoryless channel (always correct when
/// impairment.loss_burst <= 1).
void transmit_train(const TrainSpec& spec, const net::AccessLink& sender,
                    LinkCursor& sender_up, const net::AccessLink& receiver,
                    LinkCursor& receiver_down, const net::PathInfo& path,
                    util::Rng& rng, TrainResult& out,
                    GilbertElliott* channel = nullptr);

}  // namespace peerscope::sim
