// Table I: the NAPA-WINE testbed — hosts, sites, countries, ASes and
// access types. Regenerated from exp::Testbed against the reference
// topology; this is the configuration every other bench runs on.
#include <iostream>

#include "bench/harness.hpp"
#include "exp/testbed.hpp"

using namespace peerscope;

int main() {
  bench::Session session{"bench_table1"};
  const net::AsTopology topo = net::make_reference_topology();
  const exp::Testbed testbed = exp::Testbed::table1();

  std::cout << "=== Table I: testbed composition ===\n\n";
  util::TextTable table{
      {"Host", "Site", "CC", "AS", "Access", "Nat", "FW"}};
  for (const auto& row : testbed.rows(topo)) {
    table.add_row({row.hosts, row.site, row.country, row.as_label,
                   row.access, row.nat ? "Y" : "-",
                   row.firewall ? "Y" : "-"});
  }
  std::cout << table.render();

  std::cout << "\nsummary: " << testbed.host_count() << " hosts, "
            << testbed.site_count() << " sites, "
            << testbed.institution_as_count() << " institution ASes, "
            << testbed.home_as_count() << " home-ISP ASes, "
            << testbed.home_host_count() << " home hosts\n";
  std::cout << "(paper text reports 44 peers / 37 institution PCs / 7 home "
               "PCs; the printed\n table enumerates 46 hosts — we reproduce "
               "the table as published.)\n";
  return 0;
}
