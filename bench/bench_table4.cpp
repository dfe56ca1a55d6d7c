// Table IV: network awareness as peer-wise and byte-wise bias — the
// paper's headline result. For every network property (BW, AS, CC,
// NET, HOP), both directions, with and without the probe set, paper vs
// measured.
#include <iostream>

#include "bench/harness.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

void add_rows(util::TextTable& table, const PaperAwareness& paper,
              const aware::AwarenessRow& measured) {
  table.add_row({paper.metric, paper.app, "paper", paper_cell(paper.bpd),
                 paper_cell(paper.ppd), paper_cell(paper.bd),
                 paper_cell(paper.pd), paper_cell(paper.bpu),
                 paper_cell(paper.ppu), paper_cell(paper.bu),
                 paper_cell(paper.pu)});
  table.add_row({"", "", "ours", fmt_opt(measured.download.b_prime_pct),
                 fmt_opt(measured.download.p_prime_pct),
                 fmt_opt(measured.download.b_pct),
                 fmt_opt(measured.download.p_pct),
                 fmt_opt(measured.upload.b_prime_pct),
                 fmt_opt(measured.upload.p_prime_pct),
                 fmt_opt(measured.upload.b_pct),
                 fmt_opt(measured.upload.p_pct)});
}

}  // namespace

int main() {
  bench::Session session{"bench_table4"};
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Table IV: network awareness, peer-wise (P) and "
               "byte-wise (B) bias ===\n\n";

  const auto results = run_three_apps(topo, cfg);
  std::vector<std::vector<aware::AwarenessRow>> tables;
  tables.reserve(results.size());
  for (const auto& result : results) {
    tables.push_back(aware::awareness_table(result.observations));
    if (cfg.outdir) {
      aware::write_awareness_csv(
          *cfg.outdir / ("table4_" + result.observations.app + ".csv"),
          result.observations.app, tables.back());
    }
  }

  util::TextTable table{{"Net", "App", "src", "B'D%", "P'D%", "BD%", "PD%",
                         "B'U%", "P'U%", "BU%", "PU%"}};
  // kPaperTable4 is ordered metric-major (BW rows, then AS, ...), apps
  // in [PPLive, SopCast, TVAnts] order matching `results`.
  for (std::size_t entry = 0; entry < std::size(kPaperTable4); ++entry) {
    const std::size_t metric_index = entry / 3;
    const std::size_t app_index = entry % 3;
    add_rows(table, kPaperTable4[entry],
             tables[app_index][metric_index]);
    if (app_index == 2) table.add_rule();
  }
  std::cout << table.render();

  // The conclusions the paper draws from this table, as checks.
  std::cout << "\nshape checks (must hold):\n";
  const auto& pplive = tables[0];
  const auto& sopcast = tables[1];
  const auto& tvants = tables[2];

  bool bw_all = true;
  for (const auto* t : {&pplive, &sopcast, &tvants}) {
    const auto& bw = (*t)[0].download;
    if (!(bw.b_prime_pct && *bw.b_prime_pct > 90 && bw.p_prime_pct &&
          *bw.p_prime_pct > 65)) {
      bw_all = false;
    }
  }
  std::cout << "  strong BW preference in all systems (B' > 90, P' > 65): "
            << (bw_all ? "yes" : "NO") << '\n';

  const auto ratio = [](const aware::AwarenessCell& cell) {
    return cell.b_prime_pct && cell.p_prime_pct && *cell.p_prime_pct > 0
               ? *cell.b_prime_pct / *cell.p_prime_pct
               : 0.0;
  };
  std::cout << "  PPLive AS byte-over-peer amplification (B'/P' >> 1): "
            << fmt(ratio(pplive[1].download), 2) << " (paper ~10)\n";
  std::cout << "  TVAnts AS byte-over-peer amplification: "
            << fmt(ratio(tvants[1].download), 2) << " (paper ~2.2)\n";
  std::cout << "  SopCast AS-blind (B' ~= P'): "
            << fmt(ratio(sopcast[1].download), 2) << " (paper ~0.9)\n";
  std::cout << "  TVAnts same-AS discovery above SopCast's (P'D): "
            << fmt_opt(tvants[1].download.p_prime_pct) << " vs "
            << fmt_opt(sopcast[1].download.p_prime_pct) << '\n';

  const auto hop_flat = [&](const std::vector<aware::AwarenessRow>& t) {
    const auto& hop = t[4].download;
    return hop.b_prime_pct && hop.p_prime_pct &&
           std::abs(*hop.b_prime_pct - *hop.p_prime_pct) < 12.0;
  };
  std::cout << "  no HOP awareness for PPLive/SopCast (B' ~= P'): "
            << (hop_flat(pplive) && hop_flat(sopcast) ? "yes" : "NO") << '\n';
  return 0;
}
