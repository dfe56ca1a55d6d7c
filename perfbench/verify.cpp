#include "verify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench/harness.hpp"

namespace perfbench {

namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::optional<double>& v) {
    add(static_cast<std::uint64_t>(v.has_value()));
    if (v) add(*v);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_cell(Fnv& h, const pa::AwarenessCell& cell) {
  h.add(cell.b_prime_pct);
  h.add(cell.p_prime_pct);
  h.add(cell.b_pct);
  h.add(cell.p_pct);
}

const Tables* find(const std::map<std::string, Tables>& tables,
                   const std::string& app) {
  const auto it = tables.find(app);
  return it == tables.end() ? nullptr : &it->second;
}

}  // namespace

std::uint64_t tables_digest(const Tables& t,
                            const peerscope::p2p::Swarm::Counters& c) {
  Fnv h;
  const pa::ExperimentSummary& s = t.summary;
  for (double v : {s.rx_kbps_mean, s.rx_kbps_max, s.tx_kbps_mean,
                   s.tx_kbps_max, s.all_peers_mean, s.contrib_rx_mean,
                   s.contrib_tx_mean}) {
    h.add(v);
  }
  for (std::uint64_t v : {s.all_peers_max, s.contrib_rx_max, s.contrib_tx_max,
                          s.observed_total}) {
    h.add(v);
  }
  for (double v : {t.bias.contributors_peer_pct, t.bias.contributors_bytes_pct,
                   t.bias.all_peers_peer_pct, t.bias.all_peers_bytes_pct}) {
    h.add(v);
  }
  for (const pa::AwarenessRow& row : t.table4) {
    h.add(static_cast<std::uint64_t>(row.metric));
    add_cell(h, row.download);
    add_cell(h, row.upload);
  }
  for (const auto as : t.matrix.ases) h.add(std::uint64_t{as.value()});
  for (double v : t.matrix.mean_bytes) h.add(v);
  h.add(t.matrix.intra_inter_ratio);
  h.add(t.matrix.intra_inter_ratio_with_lan);
  for (std::uint64_t v :
       {c.chunks_delivered, c.chunks_duplicate, c.chunks_uploaded,
        c.requests_refused, c.contacts, c.timeouts, c.contact_failures,
        c.probe_crashes, c.chunks_retried, c.partners_blacklisted}) {
    h.add(v);
  }
  return h.value();
}

std::uint64_t observations_digest(const pa::ExperimentObservations& data) {
  Fnv h;
  h.add(static_cast<std::uint64_t>(data.per_probe.size()));
  for (const auto& probe : data.per_probe) {
    std::vector<const pa::PairObservation*> sorted;
    sorted.reserve(probe.size());
    for (const auto& o : probe) sorted.push_back(&o);
    std::sort(sorted.begin(), sorted.end(),
              [](const pa::PairObservation* a, const pa::PairObservation* b) {
                return a->remote < b->remote;
              });
    h.add(static_cast<std::uint64_t>(sorted.size()));
    for (const pa::PairObservation* o : sorted) {
      h.add(std::uint64_t{o->probe.bits()});
      h.add(std::uint64_t{o->remote.bits()});
      h.add(std::uint64_t{o->probe_as.value()});
      h.add(std::uint64_t{o->remote_as.value()});
      h.add(static_cast<std::uint64_t>(o->same_subnet));
      h.add(static_cast<std::uint64_t>(o->remote_is_napa));
      for (std::uint64_t v :
           {o->rx_pkts, o->rx_bytes, o->tx_pkts, o->tx_bytes,
            o->rx_video_pkts, o->rx_video_bytes, o->tx_video_pkts,
            o->tx_video_bytes, o->rx_ipg_samples}) {
        h.add(v);
      }
      h.add(static_cast<std::uint64_t>(o->min_rx_video_ipg_ns));
      for (const std::int64_t ipg : o->smallest_rx_ipgs) {
        h.add(static_cast<std::uint64_t>(ipg));
      }
      h.add(static_cast<std::uint64_t>(o->rx_hops));
    }
  }
  return h.value();
}

std::string hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::vector<ShapeResult> shape_checks(
    const std::map<std::string, Tables>& tables) {
  std::vector<ShapeResult> out;
  const Tables* pplive = find(tables, "PPLive");
  const Tables* sopcast = find(tables, "SopCast");
  const Tables* tvants = find(tables, "TVAnts");
  const bool all3 = pplive && sopcast && tvants;
  const std::vector<std::string> three{"PPLive", "SopCast", "TVAnts"};

  if (all3) {
    out.push_back({"T2 peers(PPLive) > peers(SopCast) > peers(TVAnts)", three,
                   pplive->summary.all_peers_mean >
                           sopcast->summary.all_peers_mean &&
                       sopcast->summary.all_peers_mean >
                           tvants->summary.all_peers_mean});
    out.push_back({"T3 self-bias ordering TVAnts > SopCast > PPLive", three,
                   tvants->bias.contributors_bytes_pct >
                           sopcast->bias.contributors_bytes_pct &&
                       sopcast->bias.contributors_bytes_pct >
                           pplive->bias.contributors_bytes_pct});
    const double r_tvants = tvants->matrix.intra_inter_ratio;
    const double r_sopcast = sopcast->matrix.intra_inter_ratio;
    out.push_back({"Fig2 R(TVAnts) > R(SopCast)", {"SopCast", "TVAnts"},
                   r_tvants > r_sopcast});
  }
  if (pplive) {
    out.push_back({"T2 PPLive TX > 3x its RX", {"PPLive"},
                   pplive->summary.tx_kbps_mean >
                       3 * pplive->summary.rx_kbps_mean});
    out.push_back({"Fig2 PPLive with-LAN ratio > 3x subnet-excluded R",
                   {"PPLive"},
                   pplive->matrix.intra_inter_ratio_with_lan >
                       3 * pplive->matrix.intra_inter_ratio});
  }
  if (sopcast) {
    out.push_back({"Fig2 R(SopCast) < 1.5", {"SopCast"},
                   sopcast->matrix.intra_inter_ratio < 1.5});
  }
  if (tvants) {
    out.push_back({"Fig2 R(TVAnts) > 1.5", {"TVAnts"},
                   tvants->matrix.intra_inter_ratio > 1.5});
  }
  for (const auto& [app, t] : tables) {
    if (app != "PPLive") {
      out.push_back({"T3 " + app + " byte share > peer share", {app},
                     t.bias.contributors_bytes_pct >=
                         t.bias.contributors_peer_pct});
    }
    const pa::AwarenessCell& bw = t.table4.at(0).download;
    out.push_back({"T4 " + app + " BW preference (B' > 90, P' > 65)", {app},
                   bw.b_prime_pct && *bw.b_prime_pct > 90 && bw.p_prime_pct &&
                       *bw.p_prime_pct > 65});
    if (app != "TVAnts") {
      const pa::AwarenessCell& hop = t.table4.at(4).download;
      out.push_back({"T4 " + app + " no HOP awareness (|B' - P'| < 12)",
                     {app},
                     hop.b_prime_pct && hop.p_prime_pct &&
                         std::abs(*hop.b_prime_pct - *hop.p_prime_pct) <
                             12.0});
    }
  }
  return out;
}

double table4_gap_pp(const std::map<std::string, Tables>& tables,
                     std::size_t* cells) {
  double sum = 0;
  std::size_t n = 0;
  // kPaperTable4 is metric-major (BW, AS, CC, NET, HOP), the same row
  // order awareness_table returns.
  for (std::size_t entry = 0; entry < std::size(peerscope::bench::kPaperTable4);
       ++entry) {
    const auto& paper = peerscope::bench::kPaperTable4[entry];
    const Tables* t = find(tables, paper.app);
    if (t == nullptr) continue;
    const pa::AwarenessRow& row = t->table4.at(entry / 3);
    const std::pair<double, std::optional<double>> pairs[] = {
        {paper.bpd, row.download.b_prime_pct},
        {paper.ppd, row.download.p_prime_pct},
        {paper.bd, row.download.b_pct},
        {paper.pd, row.download.p_pct},
        {paper.bpu, row.upload.b_prime_pct},
        {paper.ppu, row.upload.p_prime_pct},
        {paper.bu, row.upload.b_pct},
        {paper.pu, row.upload.p_pct}};
    for (const auto& [published, ours] : pairs) {
      if (published < 0 || !ours) continue;
      sum += std::abs(*ours - published);
      ++n;
    }
  }
  if (cells != nullptr) *cells += n;
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

ReferenceTable read_reference(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read " + path.string());
  ReferenceTable table;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::uint64_t seed = 0;
    std::string key;
    std::string digest;
    if (!(fields >> seed >> key >> digest) || digest.size() != 16) {
      throw std::runtime_error(path.string() + ":" + std::to_string(lineno) +
                               ": expected '<seed> <key> <16 hex digits>'");
    }
    table[{seed, key}] = std::stoull(digest, nullptr, 16);
  }
  return table;
}

}  // namespace perfbench
