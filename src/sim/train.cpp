#include "sim/train.hpp"

#include <algorithm>
#include <stdexcept>

namespace peerscope::sim {

void transmit_train(const TrainSpec& spec, const net::AccessLink& sender,
                    LinkCursor& sender_up, const net::AccessLink& receiver,
                    LinkCursor& receiver_down, const net::PathInfo& path,
                    util::Rng& rng, TrainResult& out,
                    GilbertElliott* channel) {
  if (spec.packet_count <= 0 || spec.packet_bytes <= 0) {
    throw std::invalid_argument("transmit_train: empty train");
  }

  // Packet fates are tallied in `out`; the caller publishes the sums,
  // so the per-packet loop stays free of shared writes.
  out.lost = out.outage_dropped = out.reordered = out.duplicated = 0;

  const util::SimTime up_ser = sender.up_tx_time(spec.packet_bytes);
  const util::SimTime down_ser = receiver.down_tx_time(spec.packet_bytes);
  const ImpairmentSpec& imp = spec.impairment;
  GilbertElliott local_channel;
  GilbertElliott& ge = channel ? *channel : local_channel;

  out.arrivals.clear();
  out.departures.clear();
  out.arrivals.reserve(static_cast<std::size_t>(spec.packet_count));
  out.departures.reserve(static_cast<std::size_t>(spec.packet_count));
  // Capture artifacts (reordered/duplicated records) land out of
  // arrival order; collected here and merge-sorted at the end.
  std::vector<util::SimTime>& artifacts = out.artifacts;
  artifacts.clear();

  // Uplink: the whole chunk is written to the socket at once, so its
  // packets occupy the link contiguously — concurrent chunks queue
  // *behind* the train, they do not interleave into it. This is what
  // keeps the in-train inter-packet gap equal to the uplink
  // serialisation time even on a busy sender (the packet-pair signal).
  const util::SimTime train_start = sender_up.reserve(
      spec.start, up_ser * static_cast<std::int64_t>(spec.packet_count));

  util::SimTime release = train_start;
  util::SimTime last_arrival{0};
  for (int i = 0; i < spec.packet_count; ++i) {
    const util::SimTime departed = release + up_ser;
    release = departed;  // next packet right behind
    out.departures.push_back(departed);

    if (imp.has_loss() && ge.lose(imp, rng)) {
      ++out.lost;
      continue;  // dropped in flight: no arrival, no receiver work
    }

    // Path: fixed one-way delay plus small positive jitter.
    const util::SimTime jitter = util::SimTime::nanos(static_cast<std::int64_t>(
        rng.uniform01() * static_cast<double>(spec.jitter_max.ns())));
    const util::SimTime reached = departed + path.one_way_delay + jitter;

    // Transient outage: the receiver link is down, the packet is gone.
    if (imp.has_outage() && in_outage(imp, spec.link_key, reached)) {
      ++out.outage_dropped;
      continue;
    }

    // Downlink: serialised through the receiver's access link; FIFO
    // order is preserved even if jitter reordered the wire arrival.
    const util::SimTime earliest = reached > last_arrival ? reached : last_arrival;
    const util::SimTime rx_start = receiver_down.reserve(earliest, down_ser);
    const util::SimTime arrival = rx_start + down_ser;
    last_arrival = arrival;

    if (imp.reorder_rate > 0.0 && rng.chance(imp.reorder_rate)) {
      // Capture-side reordering: the sniffer stamps this packet late,
      // landing it among later arrivals. Link occupancy is unchanged —
      // only the recorded timestamp moves.
      ++out.reordered;
      artifacts.push_back(arrival +
                          util::SimTime::nanos(static_cast<std::int64_t>(
                              rng.uniform01() *
                              static_cast<double>(imp.reorder_delay.ns()))));
    } else {
      out.arrivals.push_back(arrival);
    }
    if (imp.duplicate_rate > 0.0 && rng.chance(imp.duplicate_rate)) {
      // Capture duplication: the same packet recorded twice a few
      // microseconds apart — fabricates a near-zero inter-packet gap.
      ++out.duplicated;
      artifacts.push_back(arrival +
                          util::SimTime::nanos(1'000 + static_cast<std::int64_t>(
                                                           rng.uniform01() *
                                                           14'000.0)));
    }
  }
  if (!artifacts.empty()) {
    out.arrivals.insert(out.arrivals.end(), artifacts.begin(),
                        artifacts.end());
    std::sort(out.arrivals.begin(), out.arrivals.end());
  }
  out.sender_done = release;
}

}  // namespace peerscope::sim
