#include "trace/flow.hpp"

#include <algorithm>

namespace peerscope::trace {

std::int64_t robust_min_ipg(std::span<const std::int64_t> smallest,
                            std::uint64_t samples, int discard) {
  if (samples == 0 || smallest.empty()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  if (discard < 0) discard = 0;
  // Never discard the whole sample: with few gaps, fall back to the
  // largest one we have rather than declaring the flow unmeasurable.
  const auto last_valid = static_cast<std::size_t>(
      std::min<std::uint64_t>(samples, smallest.size()) - 1);
  const std::size_t idx =
      std::min(static_cast<std::size_t>(discard), last_valid);
  return smallest[idx];
}

std::uint8_t FlowStats::rx_ttl_mode() const {
  std::uint8_t best = rx_ttl;
  std::int32_t best_count = 0;
  for (std::size_t i = 0; i < ttl_candidates.size(); ++i) {
    if (ttl_counts[i] > best_count) {
      best_count = ttl_counts[i];
      best = ttl_candidates[i];
    }
  }
  return best;
}

namespace {

/// Records `n` RX packets carrying `ttl`: last-seen TTL plus the
/// Misra–Gries update, in closed form for `n` equal values. A live
/// candidate holding `ttl` gains `n`; otherwise each copy decrements
/// every count until a slot frees up (none needs to when one is already
/// free), and the remaining copies claim the first free slot.
void note_rx_ttl(FlowStats& f, std::uint8_t ttl, std::int32_t n) {
  f.rx_ttl = ttl;
  f.saw_rx = true;
  auto& counts = f.ttl_counts;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0 && f.ttl_candidates[i] == ttl) {
      counts[i] += n;
      return;
    }
  }
  const std::int32_t spent =
      std::min(*std::min_element(counts.begin(), counts.end()), n);
  for (auto& count : counts) count -= spent;
  if (n == spent) return;
  const auto free_slot = static_cast<std::size_t>(
      std::find(counts.begin(), counts.end(), 0) - counts.begin());
  f.ttl_candidates[free_slot] = ttl;
  counts[free_slot] = n - spent;
}

/// One RX video inter-packet gap. Negative gaps (capture reordering
/// across trains) are not samples.
void note_rx_ipg(FlowStats& f, std::int64_t gap) {
  if (gap < 0) return;
  if (gap < f.min_rx_video_ipg_ns) f.min_rx_video_ipg_ns = gap;
  ++f.rx_ipg_samples;
  // Insertion into the sorted k-smallest array.
  auto& smallest = f.smallest_rx_ipgs;
  if (gap < smallest.back()) {
    smallest.back() = gap;
    for (std::size_t i = smallest.size() - 1;
         i > 0 && smallest[i] < smallest[i - 1]; --i) {
      std::swap(smallest[i], smallest[i - 1]);
    }
  }
}

}  // namespace

FlowStats& FlowTable::touch(net::Ipv4Addr remote, util::SimTime first,
                            util::SimTime last) {
  auto [it, inserted] = flows_.try_emplace(remote);
  FlowStats& f = it->second;
  if (inserted) f.remote = remote;
  f.first_ts = std::min(f.first_ts, first);
  f.last_ts = std::max(f.last_ts, last);
  return f;
}

void FlowTable::count(FlowStats& f, Direction dir, bool video,
                      std::uint64_t pkts, std::uint64_t bytes) {
  if (dir == Direction::kRx) {
    f.rx_pkts += pkts;
    f.rx_bytes += bytes;
    total_rx_pkts_ += pkts;
    total_rx_bytes_ += bytes;
    if (video) {
      f.rx_video_pkts += pkts;
      f.rx_video_bytes += bytes;
    }
  } else {
    f.tx_pkts += pkts;
    f.tx_bytes += bytes;
    total_tx_pkts_ += pkts;
    total_tx_bytes_ += bytes;
    if (video) {
      f.tx_video_pkts += pkts;
      f.tx_video_bytes += bytes;
    }
  }
}

void FlowTable::add(const PacketRecord& record) {
  FlowStats& f = touch(record.remote, record.ts, record.ts);
  const bool video = record.kind == sim::PacketKind::kVideo;
  count(f, record.dir, video, 1, static_cast<std::uint64_t>(record.bytes));
  if (record.dir != Direction::kRx) return;
  note_rx_ttl(f, record.ttl, 1);
  if (!video) return;
  // The first video packet only anchors the gap sequence.
  if (f.rx_video_pkts > 1) {
    note_rx_ipg(f, record.ts.ns() - f.last_rx_video_ts.ns());
  }
  f.last_rx_video_ts = record.ts;
}

void FlowTable::add_train(net::Ipv4Addr remote, Direction dir,
                          std::span<const util::SimTime> timestamps,
                          std::int32_t bytes, std::uint8_t ttl) {
  if (timestamps.empty()) return;
  FlowStats& f = touch(remote, timestamps.front(), timestamps.back());
  const std::uint64_t n = timestamps.size();
  const bool first_video = f.rx_video_pkts == 0;
  count(f, dir, true, n, n * static_cast<std::uint64_t>(bytes));
  if (dir != Direction::kRx) return;
  note_rx_ttl(f, ttl, static_cast<std::int32_t>(n));
  auto it = timestamps.begin();
  util::SimTime prev = first_video ? *it++ : f.last_rx_video_ts;
  for (; it != timestamps.end(); ++it) {
    note_rx_ipg(f, it->ns() - prev.ns());
    prev = *it;
  }
  f.last_rx_video_ts = prev;
}

FlowTable FlowTable::from_records(net::Ipv4Addr probe,
                                  std::span<const PacketRecord> records) {
  std::vector<PacketRecord> sorted(records.begin(), records.end());
  std::sort(sorted.begin(), sorted.end(), record_before);
  FlowTable table{probe};
  for (const auto& r : sorted) table.add(r);
  return table;
}

const FlowStats* FlowTable::find(net::Ipv4Addr remote) const {
  const auto it = flows_.find(remote);
  return it == flows_.end() ? nullptr : &it->second;
}

}  // namespace peerscope::trace
