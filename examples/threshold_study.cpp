// Sensitivity of the BW classification to the 1 ms threshold (§III-B):
// sweeps the inter-packet-gap boundary across three decades and prints
// the resulting Table IV BW cell plus the supplier-capacity histogram,
// showing the paper's 10 Mb/s choice sits on a plateau between the DSL
// and ethernet capacity clusters.
//
//   ./threshold_study [app] [duration_s]

#include <iostream>

#include "args.hpp"
#include "aware/bandwidth.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"

using namespace peerscope;

int main(int argc, char** argv) {
  const examples::Args args{argc, argv, "threshold_study [app] [duration_s]"};
  const std::string app = args.text(1, "sopcast");
  const std::int64_t duration_s = args.duration_s(2, 150);

  p2p::SystemProfile profile;
  if (app == "pplive") profile = p2p::SystemProfile::pplive();
  else if (app == "tvants") profile = p2p::SystemProfile::tvants();
  else profile = p2p::SystemProfile::sopcast();

  const net::AsTopology topo = net::make_reference_topology();
  exp::RunSpec spec;
  spec.profile = profile;
  spec.seed = 42;
  spec.duration = util::SimTime::seconds(duration_s);
  std::cout << "Running " << profile.name << " (" << duration_s
            << " s)...\n\n";
  const auto result = exp::run_experiment(topo, spec);

  // Threshold sweep: 0.1 ms .. 100 ms, i.e. 100 Mb/s .. 0.1 Mb/s.
  const std::int64_t thresholds[] = {
      100'000,    200'000,    500'000,    1'000'000,  2'000'000,
      5'000'000,  10'000'000, 20'000'000, 50'000'000, 100'000'000};
  const auto sweep =
      aware::bw_threshold_sweep(result.observations, thresholds);

  util::TextTable table{
      {"IPG threshold", "= capacity", "P'D% (peers high)", "B'D% (bytes)"}};
  for (const auto& point : sweep) {
    const double mbps =
        1250.0 * 8.0 / static_cast<double>(point.threshold_ns) * 1e3;
    std::string label = util::TextTable::num(
        static_cast<double>(point.threshold_ns) / 1e6, 1);
    table.add_row({label + " ms",
                   util::TextTable::num(mbps, 1) + " Mbps",
                   util::TextTable::num(point.peer_pct),
                   util::TextTable::num(point.byte_pct)});
  }
  std::cout << table.render();

  std::cout << "\nsupplier capacity distribution (non-probe RX "
               "contributors):\n";
  const auto histogram =
      aware::capacity_distribution(result.observations, 120.0, 12);
  std::cout << histogram.render(40);

  std::cout << "\nReading: between the DSL cluster (< 1 Mb/s) and the\n"
               "ethernet/fiber cluster (>= 20 Mb/s) the preference curve\n"
               "is flat — any threshold from ~2 to ~20 Mb/s, including\n"
               "the paper's 10 Mb/s (1 ms), classifies identically.\n";
  return 0;
}
