// Figure 2: average traffic exchanged between high-bandwidth probes
// across Autonomous Systems, per application — printed as the AS x AS
// matrix (kB means) with the intra-AS diagonal highlighted, plus the
// intra/inter ratio R the paper reports (TVAnts 1.93, PPLive 0.98,
// SopCast 0.2). Includes the PPLive-Popular variant the discussion
// singles out (strong locality, mostly hop-0 traffic).
#include <iostream>

#include "bench/harness.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

void print_matrix(const std::string& app, const aware::AsMatrix& matrix) {
  std::vector<std::string> header{app + " [kB]"};
  for (const auto as : matrix.ases) header.push_back("to " + as.to_string());
  util::TextTable table{header};
  for (std::size_t i = 0; i < matrix.ases.size(); ++i) {
    std::vector<std::string> row{"from " + matrix.ases[i].to_string()};
    for (std::size_t j = 0; j < matrix.ases.size(); ++j) {
      std::string cell = fmt(matrix.at(i, j) / 1e3, 0);
      if (i == j) cell = "[" + cell + "]";  // intra-AS diagonal
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render();
  std::cout << "R (intra/inter, same-subnet pairs excluded as in §IV-B) = "
            << fmt(matrix.intra_inter_ratio, 2)
            << "   [including LAN pairs: "
            << fmt(matrix.intra_inter_ratio_with_lan, 2) << "]\n\n";
}

}  // namespace

int main() {
  bench::Session session{"bench_fig2"};
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Figure 2: mean exchanged data among institution ASes "
               "(high-bw probes) ===\n\n";

  auto results = run_three_apps(topo, cfg);
  // Add the PPLive-Popular experiment (4th panel of the discussion).
  exp::RunSpec popular;
  popular.profile = p2p::SystemProfile::pplive_popular();
  popular.seed = cfg.seed;
  popular.duration = util::SimTime::seconds(cfg.seconds);
  results.push_back(exp::run_experiment(topo, popular));

  std::vector<aware::RunProducts> products(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& app = results[i].observations.app;
    const auto& matrix = products[i].as_matrix.emplace(
        aware::as_traffic_matrix(results[i].observations));
    print_matrix(app, matrix);
    if (cfg.outdir) {
      aware::write_matrix_csv(*cfg.outdir / ("fig2_" + app + ".csv"), app,
                              matrix);
    }
  }

  std::cout << "paper ratios: ";
  for (const auto& paper : aware::kPaperFig2Ratios) {
    std::cout << paper.app << " R=" << fmt(paper.ratio, 2) << "  ";
  }
  std::cout << '\n';
  return judge_claims(aware::paper_claims(paper_runs(products), "Fig2"),
                      cfg.seconds);
}
