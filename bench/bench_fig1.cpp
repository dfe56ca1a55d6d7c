// Figure 1: geographical breakdown of contacted peers (#), received
// (RX) and transmitted (TX) bytes per application, over
// {CN, HU, IT, FR, PL, *}.
//
// The paper presents this as stacked bars; we print the same series as
// percentages. Qualitative target: CN dominates peer counts, but a
// non-negligible byte fraction stays within Europe.
#include <iostream>

#include "bench/harness.hpp"

using namespace peerscope;
using namespace peerscope::bench;

int main() {
  bench::Session session{"bench_fig1"};
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Figure 1: geographical breakdown (percent of peers / "
               "RX bytes / TX bytes) ===\n\n";

  const auto results = run_three_apps(topo, cfg);

  std::vector<aware::RunProducts> products(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    const auto& shares =
        products[i].geo.emplace(aware::geo_breakdown(result.observations));
    if (cfg.outdir) {
      aware::write_geo_csv(
          *cfg.outdir / ("fig1_" + result.observations.app + ".csv"),
          result.observations.app, shares);
    }
    util::TextTable table{{result.observations.app, "# peers %", "RX %",
                           "TX %"}};
    for (const auto& share : shares) {
      table.add_row({share.cc.known() ? share.cc.to_string() : "*",
                     fmt(share.peer_pct), fmt(share.rx_bytes_pct),
                     fmt(share.tx_bytes_pct)});
    }
    std::cout << table.render() << '\n';
  }

  return judge_claims(aware::paper_claims(paper_runs(products), "Fig1"),
                      cfg.seconds);
}
