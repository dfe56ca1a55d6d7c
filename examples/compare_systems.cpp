// Side-by-side comparison of the three P2P-TV systems: runs all
// experiments concurrently on a thread pool and prints a compact
// dashboard of the paper's headline statistics — the "which system is
// network-friendlier" question the paper answers.
//
//   ./compare_systems [duration_s] [seed]

#include <iostream>

#include "args.hpp"
#include "aware/bandwidth.hpp"
#include "aware/report.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace peerscope;

int main(int argc, char** argv) {
  const examples::Args args{argc, argv, "compare_systems [duration_s] [seed]"};
  const std::int64_t duration_s = args.duration_s(1, 150);
  const std::uint64_t seed = args.seed(2, 42);

  const net::AsTopology topo = net::make_reference_topology();

  std::vector<exp::RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants()}) {
    exp::RunSpec spec;
    spec.profile = std::move(profile);
    spec.seed = seed;
    spec.duration = util::SimTime::seconds(duration_s);
    specs.push_back(std::move(spec));
  }

  std::cout << "Running " << specs.size() << " experiments ("
            << duration_s << " s each) concurrently...\n\n";
  util::ThreadPool pool;
  const auto results = exp::run_experiments(topo, specs, pool);

  util::TextTable table{{"statistic", "PPLive", "SopCast", "TVAnts"}};
  auto row = [&table](const std::string& label, auto getter,
                      const std::vector<exp::RunResult>& rs) {
    std::vector<std::string> cells{label};
    for (const auto& r : rs) cells.push_back(getter(r));
    table.add_row(std::move(cells));
  };
  const auto num = [](double v, int p = 1) {
    return util::TextTable::num(v, p);
  };

  row("stream RX [kbps]",
      [&](const exp::RunResult& r) {
        return num(aware::summarize(r.observations).rx_kbps_mean, 0);
      },
      results);
  row("stream TX [kbps]",
      [&](const exp::RunResult& r) {
        return num(aware::summarize(r.observations).tx_kbps_mean, 0);
      },
      results);
  row("peers contacted / probe",
      [&](const exp::RunResult& r) {
        return num(aware::summarize(r.observations).all_peers_mean, 0);
      },
      results);
  row("RX contributors / probe",
      [&](const exp::RunResult& r) {
        return num(aware::summarize(r.observations).contrib_rx_mean, 0);
      },
      results);
  table.add_rule();
  row("BW byte-preference B'D%",
      [&](const exp::RunResult& r) {
        const auto rows = aware::awareness_table(r.observations);
        return num(rows[0].download.b_prime_pct.value_or(0));
      },
      results);
  row("AS byte-preference B'D%",
      [&](const exp::RunResult& r) {
        const auto rows = aware::awareness_table(r.observations);
        return num(rows[1].download.b_prime_pct.value_or(0));
      },
      results);
  row("AS peer-preference P'D%",
      [&](const exp::RunResult& r) {
        const auto rows = aware::awareness_table(r.observations);
        return num(rows[1].download.p_prime_pct.value_or(0));
      },
      results);
  row("HOP byte-preference B'D%",
      [&](const exp::RunResult& r) {
        const auto rows = aware::awareness_table(r.observations);
        return num(rows[4].download.b_prime_pct.value_or(0));
      },
      results);
  table.add_rule();
  row("probe-cloud byte share %",
      [&](const exp::RunResult& r) {
        return num(aware::self_bias(r.observations).contributors_bytes_pct);
      },
      results);
  row("intra-AS probe ratio R",
      [&](const exp::RunResult& r) {
        return num(aware::as_traffic_matrix(r.observations).intra_inter_ratio,
                   2);
      },
      results);
  row("median supplier capacity [Mbps]",
      [&](const exp::RunResult& r) {
        return num(aware::capacity_distribution(r.observations).quantile(0.5),
                   1);
      },
      results);

  std::cout << table.render();
  std::cout << "\nReading: every system chases bandwidth; TVAnts (and to a\n"
               "lesser degree PPLive) also localises traffic within the AS;\n"
               "SopCast is location-blind; nobody optimises hop distance.\n";
  return 0;
}
