// Calibration inspector (development tool): joins the black-box
// observations against simulator ground truth to show where bytes come
// from — by true access class, by lag, by probe/background split.
//
//   ./calibrate_debug [app] [duration_s]
#include <iostream>
#include <map>
#include <string>

#include "args.hpp"
#include "exp/runner.hpp"
#include "exp/testbed.hpp"
#include "net/topology.hpp"
#include "p2p/swarm.hpp"
#include "util/table.hpp"

using namespace peerscope;

int main(int argc, char** argv) {
  const examples::Args args{argc, argv, "calibrate_debug [app] [duration_s]"};
  const std::string app = args.text(1, "tvants");
  const std::int64_t duration_s = args.duration_s(2, 120);

  p2p::SystemProfile profile;
  if (app == "pplive") profile = p2p::SystemProfile::pplive();
  else if (app == "sopcast") profile = p2p::SystemProfile::sopcast();
  else profile = p2p::SystemProfile::tvants();

  const net::AsTopology topo = net::make_reference_topology();
  const exp::Testbed testbed = exp::Testbed::table1();

  p2p::SwarmConfig config;
  config.profile = profile;
  config.seed = 42;
  config.duration = util::SimTime::seconds(duration_s);
  p2p::Swarm swarm{topo, testbed.probes(), config};
  swarm.run();

  const auto& pop = swarm.population();

  struct Bucket {
    std::uint64_t peers = 0;
    std::uint64_t bytes = 0;
    std::uint64_t misclassified = 0;  // true class != IPG class
  };
  std::map<std::string, Bucket> rx_by_class;  // non-napa RX contributors
  std::uint64_t total_bytes = 0;

  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    for (const auto& [remote, f] : swarm.sink(i).flows().flows()) {
      if (f.rx_video_pkts < 13) continue;
      const auto id = pop.find(remote);
      if (!id) continue;
      const auto& info = pop.peer(*id);
      if (info.is_probe) continue;  // non-napa only
      const bool true_high = info.access.is_high_bandwidth();
      const bool ipg_high =
          f.has_min_ipg() && f.min_rx_video_ipg_ns < 1'000'000;
      std::string key = std::string(true_high ? "hi" : "lo") + "/" +
                        (info.is_source ? "src" : "bg");
      auto& b = rx_by_class[key];
      ++b.peers;
      b.bytes += f.rx_video_bytes;
      if (true_high != ipg_high) ++b.misclassified;
      total_bytes += f.rx_video_bytes;
    }
  }

  std::cout << app << " non-napa RX contributors by TRUE class:\n";
  for (const auto& [key, b] : rx_by_class) {
    std::cout << "  " << key << ": peers=" << b.peers
              << " bytes=" << b.bytes << " ("
              << (total_bytes ? 100.0 * static_cast<double>(b.bytes) /
                                    static_cast<double>(total_bytes)
                              : 0.0)
              << "%) misclassified=" << b.misclassified << '\n';
  }

  // Per-peer byte distribution of lo/bg contributors.
  std::cout << "\nlow-bw contributor byte histogram (chunks of 16250B):\n";
  std::map<std::uint64_t, int> chunks_hist;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    for (const auto& [remote, f] : swarm.sink(i).flows().flows()) {
      if (f.rx_video_pkts < 13) continue;
      const auto id = pop.find(remote);
      if (!id || pop.peer(*id).is_probe) continue;
      if (!pop.peer(*id).access.is_high_bandwidth()) {
        ++chunks_hist[f.rx_video_bytes / 16250];
      }
    }
  }
  for (const auto& [chunks, count] : chunks_hist) {
    std::cout << "  " << chunks << " chunks: " << count << " peers\n";
  }

  // Hop-count distribution over all observed peers and over RX
  // contributors (sanity check for the fixed 19-hop threshold).
  std::map<int, int> hop_all, hop_contrib;
  std::uint64_t below_all = 0, n_all = 0, below_c = 0, n_c = 0;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    for (const auto& [remote, f] : swarm.sink(i).flows().flows()) {
      if (!f.saw_rx) continue;
      const int hops = 128 - static_cast<int>(f.rx_ttl);
      ++hop_all[hops];
      ++n_all;
      if (hops < 19) ++below_all;
      if (f.rx_video_pkts >= 13 && !pop.is_probe_addr(remote)) {
        ++hop_contrib[hops];
        ++n_c;
        if (hops < 19) ++below_c;
      }
    }
  }
  std::cout << "\nhops<19: all peers "
            << 100.0 * static_cast<double>(below_all) /
                   static_cast<double>(n_all)
            << "%  non-napa RX contributors "
            << 100.0 * static_cast<double>(below_c) /
                   static_cast<double>(n_c)
            << "%\nhop histogram (all): ";
  for (const auto& [h, c] : hop_all) std::cout << h << ':' << c << ' ';
  std::cout << '\n';
  return 0;
}
