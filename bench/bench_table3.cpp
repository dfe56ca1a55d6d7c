// Table III: NAPA-WINE self-induced bias — the share of peers and bytes
// that the probes exchange among themselves, over contributors and over
// all peers, paper vs measured.
#include <iostream>

#include "bench/harness.hpp"

using namespace peerscope;
using namespace peerscope::bench;

int main() {
  bench::Session session{"bench_table3"};
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Table III: self-induced bias (paper vs measured) ===\n\n";

  const auto results = run_three_apps(topo, cfg);

  util::TextTable table{{"App", "src", "contrib Peer%", "contrib Bytes%",
                         "all Peer%", "all Bytes%"}};
  std::vector<aware::RunProducts> products(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& paper = aware::kPaperTable3[i];
    const aware::SelfBias& bias =
        products[i].bias.emplace(aware::self_bias(results[i].observations));
    table.add_row({paper.app, "paper", fmt(paper.contrib_peer_pct, 2),
                   fmt(paper.contrib_bytes_pct, 2), fmt(paper.all_peer_pct, 2),
                   fmt(paper.all_bytes_pct, 2)});
    table.add_row({"", "ours", fmt(bias.contributors_peer_pct, 2),
                   fmt(bias.contributors_bytes_pct, 2),
                   fmt(bias.all_peers_peer_pct, 2),
                   fmt(bias.all_peers_bytes_pct, 2)});
    table.add_rule();
  }
  std::cout << table.render();

  return judge_claims(aware::paper_claims(paper_runs(products), "T3"),
                      cfg.seconds);
}
