// Per-probe capture sink: the simulator-side "tcpdump".
//
// Always maintains an online FlowTable (O(#peers) memory, enough for
// every statistic in the paper). Optionally also stores raw
// PacketRecords, which is what gets written to trace files and fed to
// the offline analysis path — tests assert both paths agree.
#pragma once

#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "sim/packet.hpp"
#include "trace/flow.hpp"
#include "trace/record.hpp"
#include "util/sim_time.hpp"

namespace peerscope::trace {

class ProbeSink {
 public:
  ProbeSink(net::Ipv4Addr probe, bool keep_records)
      : probe_(probe), keep_records_(keep_records), flows_(probe) {}

  [[nodiscard]] net::Ipv4Addr probe() const { return probe_; }

  void on_packet(const PacketRecord& record) {
    flows_.add(record);
    if (keep_records_) records_.push_back(record);
  }

  /// A received video burst: one RX record per packet arrival, folded
  /// into the flow table as one train update.
  void video_train_rx(net::Ipv4Addr remote,
                      std::span<const util::SimTime> arrivals,
                      std::int32_t bytes_per_packet, std::uint8_t ttl) {
    flows_.add_train(remote, Direction::kRx, arrivals, bytes_per_packet, ttl);
    if (!keep_records_) return;
    for (const auto ts : arrivals) {
      records_.push_back({ts, remote, bytes_per_packet, Direction::kRx,
                          sim::PacketKind::kVideo, ttl});
    }
  }

  /// A transmitted video burst: one TX record per packet departure.
  void video_train_tx(net::Ipv4Addr remote,
                      std::span<const util::SimTime> departures,
                      std::int32_t bytes_per_packet) {
    flows_.add_train(remote, Direction::kTx, departures, bytes_per_packet,
                     sim::kInitialTtl);
    if (!keep_records_) return;
    for (const auto ts : departures) {
      records_.push_back({ts, remote, bytes_per_packet, Direction::kTx,
                          sim::PacketKind::kVideo, sim::kInitialTtl});
    }
  }

  void signaling_rx(net::Ipv4Addr remote, util::SimTime ts,
                    std::int32_t bytes, std::uint8_t ttl) {
    on_packet({ts, remote, bytes, Direction::kRx,
               sim::PacketKind::kSignaling, ttl});
  }

  void signaling_tx(net::Ipv4Addr remote, util::SimTime ts,
                    std::int32_t bytes) {
    on_packet({ts, remote, bytes, Direction::kTx,
               sim::PacketKind::kSignaling, sim::kInitialTtl});
  }

  [[nodiscard]] const FlowTable& flows() const { return flows_; }
  [[nodiscard]] bool keeps_records() const { return keep_records_; }
  [[nodiscard]] const std::vector<PacketRecord>& records() const {
    return records_;
  }

  /// Sorts stored records into capture order (no-op effect on flows).
  void sort_records();

 private:
  net::Ipv4Addr probe_;
  bool keep_records_;
  FlowTable flows_;
  std::vector<PacketRecord> records_;
};

}  // namespace peerscope::trace
