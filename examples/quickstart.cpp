// Quickstart: run one scaled-down P2P-TV experiment and print the
// summary plus the network-awareness table — the whole pipeline
// (simulate -> capture -> contributor heuristic -> preference
// framework) in ~40 lines of user code.
//
//   ./quickstart [app] [seed] [duration_s]
//     app: tvants (default) | sopcast | pplive | pplive-popular

#include <cstdlib>
#include <iostream>
#include <string>

#include "args.hpp"
#include "aware/report.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"

using namespace peerscope;

namespace {

p2p::SystemProfile profile_by_name(const std::string& name) {
  if (name == "pplive") return p2p::SystemProfile::pplive();
  if (name == "sopcast") return p2p::SystemProfile::sopcast();
  if (name == "pplive-popular") return p2p::SystemProfile::pplive_popular();
  if (name == "tvants") return p2p::SystemProfile::tvants();
  std::cerr << "unknown app '" << name
            << "' (expected tvants|sopcast|pplive|pplive-popular)\n";
  std::exit(2);
}

std::string opt(const std::optional<double>& v) {
  return v ? util::TextTable::num(*v, 1) : "-";
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Args args{argc, argv, "quickstart [app] [seed] [duration_s]"};
  const std::string app = args.text(1, "tvants");
  const std::uint64_t seed = args.seed(2, 42);
  const std::int64_t duration_s = args.duration_s(3, 120);

  const net::AsTopology topo = net::make_reference_topology();

  exp::RunSpec spec;
  spec.profile = profile_by_name(app);
  spec.seed = seed;
  spec.duration = util::SimTime::seconds(duration_s);

  std::cout << "Running " << spec.profile.name << " experiment: "
            << spec.profile.population.background_peers
            << " background peers, " << duration_s << " s, seed " << seed
            << "...\n";
  const exp::RunResult result = exp::run_experiment(topo, spec);

  const aware::ExperimentSummary s = aware::summarize(result.observations);
  util::TextTable summary{{"metric", "mean", "max"}};
  summary.add_row({"stream RX [kbps]", util::TextTable::num(s.rx_kbps_mean),
                   util::TextTable::num(s.rx_kbps_max)});
  summary.add_row({"stream TX [kbps]", util::TextTable::num(s.tx_kbps_mean),
                   util::TextTable::num(s.tx_kbps_max)});
  summary.add_row({"all peers", util::TextTable::num(s.all_peers_mean),
                   util::TextTable::count(s.all_peers_max)});
  summary.add_row({"contributors RX",
                   util::TextTable::num(s.contrib_rx_mean),
                   util::TextTable::count(s.contrib_rx_max)});
  summary.add_row({"contributors TX",
                   util::TextTable::num(s.contrib_tx_mean),
                   util::TextTable::count(s.contrib_tx_max)});
  summary.add_row(
      {"observed peers total", util::TextTable::count(s.observed_total), ""});
  std::cout << '\n' << summary.render();

  const aware::SelfBias bias = aware::self_bias(result.observations);
  std::cout << "\nself-induced bias (contributors): peers "
            << util::TextTable::num(bias.contributors_peer_pct)
            << "%  bytes "
            << util::TextTable::num(bias.contributors_bytes_pct) << "%\n";

  const auto table4 = aware::awareness_table(result.observations);
  util::TextTable awareness{
      {"net", "B'D%", "P'D%", "BD%", "PD%", "B'U%", "P'U%", "BU%", "PU%"}};
  for (const auto& row : table4) {
    awareness.add_row({aware::to_string(row.metric),
                       opt(row.download.b_prime_pct),
                       opt(row.download.p_prime_pct), opt(row.download.b_pct),
                       opt(row.download.p_pct), opt(row.upload.b_prime_pct),
                       opt(row.upload.p_prime_pct), opt(row.upload.b_pct),
                       opt(row.upload.p_pct)});
  }
  std::cout << "\nnetwork awareness (Table IV layout):\n"
            << awareness.render();

  std::cout << "\nsim counters: delivered=" << result.counters.chunks_delivered
            << " dup=" << result.counters.chunks_duplicate
            << " uploaded=" << result.counters.chunks_uploaded
            << " refused=" << result.counters.requests_refused
            << " contacts=" << result.counters.contacts
            << " timeouts=" << result.counters.timeouts << '\n';
  return 0;
}
