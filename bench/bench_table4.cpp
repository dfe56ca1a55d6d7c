// Table IV: network awareness as peer-wise and byte-wise bias — the
// paper's headline result. For every network property (BW, AS, CC,
// NET, HOP), both directions, with and without the probe set, paper vs
// measured.
#include <iostream>

#include "bench/harness.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

void add_rows(util::TextTable& table, const aware::PaperAwareness& paper,
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
  std::vector<aware::RunProducts> products(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& rows = products[i].awareness.emplace(
        aware::awareness_table(results[i].observations));
    if (cfg.outdir) {
      aware::write_awareness_csv(
          *cfg.outdir / ("table4_" + results[i].observations.app + ".csv"),
          results[i].observations.app, rows);
    }
  }

  util::TextTable table{{"Net", "App", "src", "B'D%", "P'D%", "BD%", "PD%",
                         "B'U%", "P'U%", "BU%", "PU%"}};
  // aware::kPaperTable4 is ordered metric-major (BW rows, then AS, ...), apps
  // in [PPLive, SopCast, TVAnts] order matching `results`.
  for (std::size_t entry = 0; entry < std::size(aware::kPaperTable4);
       ++entry) {
    const std::size_t metric_index = entry / 3;
    const std::size_t app_index = entry % 3;
    add_rows(table, aware::kPaperTable4[entry],
             (*products[app_index].awareness)[metric_index]);
    if (app_index == 2) table.add_rule();
  }
  std::cout << table.render();
  return judge_claims(aware::paper_claims(paper_runs(products), "T4"),
                      cfg.seconds);
}
