#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <set>

namespace peerscope::net {
namespace {

AsTopology small_topology() {
  AsTopology topo;
  topo.add_as(AsId{1}, kItaly, Region::kEurope, /*transit=*/2, /*border=*/1);
  topo.add_as(AsId{2}, kFrance, Region::kEurope, 3, 1);
  topo.add_as(AsId{3}, kChina, Region::kAsia, 4, 2);
  topo.connect(AsId{1}, AsId{2});
  topo.connect(AsId{2}, AsId{3});
  topo.finalize();
  return topo;
}

TEST(AsTopology, PathHopsOnLine) {
  const AsTopology topo = small_topology();
  EXPECT_EQ(topo.as_path_hops(AsId{1}, AsId{1}), 0);
  // 1 -> 2: enter AS2 (1 hop), destination AS is not transited.
  EXPECT_EQ(topo.as_path_hops(AsId{1}, AsId{2}), 1);
  // 1 -> 3: enter AS2 (1) + transit AS2 (3) + enter AS3 (1).
  EXPECT_EQ(topo.as_path_hops(AsId{1}, AsId{3}), 5);
  // Reverse direction: enter AS2 (1) + transit AS2 (3) + enter AS1 (1).
  EXPECT_EQ(topo.as_path_hops(AsId{3}, AsId{1}), 5);
}

TEST(AsTopology, MetadataLookups) {
  const AsTopology topo = small_topology();
  EXPECT_EQ(topo.country_of_as(AsId{3}), kChina);
  EXPECT_EQ(topo.region_of_as(AsId{3}), Region::kAsia);
  EXPECT_TRUE(topo.contains(AsId{1}));
  EXPECT_FALSE(topo.contains(AsId{99}));
  EXPECT_EQ(topo.as_count(), 3u);
}

TEST(AsTopology, AsIdsInInsertionOrder) {
  const AsTopology topo = small_topology();
  const auto ids = topo.as_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], AsId{1});
  EXPECT_EQ(ids[2], AsId{3});
}

TEST(AsTopology, ErrorsOnMisuse) {
  AsTopology topo;
  topo.add_as(AsId{1}, kItaly, Region::kEurope);
  EXPECT_THROW(topo.add_as(AsId{1}, kItaly, Region::kEurope),
               std::invalid_argument);
  EXPECT_THROW(topo.connect(AsId{1}, AsId{1}), std::invalid_argument);
  EXPECT_THROW(topo.connect(AsId{1}, AsId{9}), std::out_of_range);
  EXPECT_THROW((void)topo.as_path_hops(AsId{1}, AsId{1}), std::logic_error);
  topo.finalize();
  EXPECT_THROW(topo.add_as(AsId{2}, kItaly, Region::kEurope),
               std::logic_error);
  EXPECT_THROW((void)topo.as_path_hops(AsId{1}, AsId{9}), std::out_of_range);
}

TEST(AsTopology, AsNumbersPastTheFlatTableStillResolve) {
  // 4-byte AS numbers sit past the flat lookup table; the hash map
  // answers them, and unknown numbers on either side still throw.
  AsTopology topo;
  topo.add_as(AsId{7}, kItaly, Region::kEurope);
  topo.add_as(AsId{4'200'000'000U}, kChina, Region::kAsia);
  topo.connect(AsId{7}, AsId{4'200'000'000U});
  topo.finalize();
  EXPECT_EQ(topo.as_path_hops(AsId{7}, AsId{4'200'000'000U}), 1);
  EXPECT_EQ(topo.region_of_as(AsId{4'200'000'000U}), Region::kAsia);
  EXPECT_THROW((void)topo.as_path_hops(AsId{7}, AsId{6}), std::out_of_range);
  EXPECT_THROW((void)topo.as_path_hops(AsId{7}, AsId{70'000}),
               std::out_of_range);
}

TEST(AsTopology, DisconnectedPairThrows) {
  AsTopology topo;
  topo.add_as(AsId{1}, kItaly, Region::kEurope);
  topo.add_as(AsId{2}, kChina, Region::kAsia);
  topo.finalize();
  EXPECT_THROW((void)topo.as_path_hops(AsId{1}, AsId{2}),
               std::runtime_error);
}

TEST(AsTopology, ConnectIsIdempotent) {
  AsTopology topo;
  topo.add_as(AsId{1}, kItaly, Region::kEurope);
  topo.add_as(AsId{2}, kFrance, Region::kEurope);
  topo.connect(AsId{1}, AsId{2});
  topo.connect(AsId{1}, AsId{2});
  topo.connect(AsId{2}, AsId{1});
  topo.finalize();
  EXPECT_EQ(topo.as_path_hops(AsId{1}, AsId{2}), 1);
}

TEST(AsTopology, SameSubnetPathIsZeroHops) {
  const AsTopology topo = small_topology();
  const Endpoint a{Ipv4Addr{10, 0, 1, 5}, AsId{1}, kItaly, Region::kEurope, 3};
  const Endpoint b{Ipv4Addr{10, 0, 1, 9}, AsId{1}, kItaly, Region::kEurope, 2};
  const PathInfo path = topo.path(a, b);
  EXPECT_EQ(path.hops, 0);
  EXPECT_LT(path.one_way_delay, util::SimTime::millis(1));
}

TEST(AsTopology, IntraAsPathUsesDepthsAndCore) {
  const AsTopology topo = small_topology();
  const Endpoint a{Ipv4Addr{10, 0, 1, 5}, AsId{1}, kItaly, Region::kEurope, 3};
  const Endpoint b{Ipv4Addr{10, 0, 9, 9}, AsId{1}, kItaly, Region::kEurope, 2};
  // depth(3) + transit core (2) + depth(2).
  EXPECT_EQ(topo.path(a, b).hops, 7);
}

TEST(AsTopology, InterAsPathBounds) {
  const AsTopology topo = small_topology();
  const Endpoint a{Ipv4Addr{10, 0, 1, 5}, AsId{1}, kItaly, Region::kEurope, 2};
  const Endpoint c{Ipv4Addr{11, 0, 1, 5}, AsId{3}, kChina, Region::kAsia, 4};
  const int base = 2 + 1 + topo.as_path_hops(AsId{1}, AsId{3}) + 2 + 4;
  const int hops = topo.path(a, c).hops;
  EXPECT_GE(hops, base);
  EXPECT_LE(hops, base + 2);  // asymmetry adds at most 2
}

TEST(AsTopology, PathIsDeterministic) {
  const AsTopology topo = small_topology();
  const Endpoint a{Ipv4Addr{10, 0, 1, 5}, AsId{1}, kItaly, Region::kEurope, 2};
  const Endpoint c{Ipv4Addr{11, 0, 1, 5}, AsId{3}, kChina, Region::kAsia, 4};
  const PathInfo p1 = topo.path(a, c);
  const PathInfo p2 = topo.path(a, c);
  EXPECT_EQ(p1.hops, p2.hops);
  EXPECT_EQ(p1.one_way_delay, p2.one_way_delay);
}

TEST(AsTopology, IntercontinentalDelayDominatesIntraEuropean) {
  const AsTopology topo = small_topology();
  const Endpoint a{Ipv4Addr{10, 0, 1, 5}, AsId{1}, kItaly, Region::kEurope, 2};
  const Endpoint b{Ipv4Addr{12, 0, 1, 5}, AsId{2}, kFrance, Region::kEurope,
                   2};
  const Endpoint c{Ipv4Addr{11, 0, 1, 5}, AsId{3}, kChina, Region::kAsia, 4};
  EXPECT_GT(topo.path(a, c).one_way_delay, topo.path(a, b).one_way_delay * 3);
}

TEST(ReferenceTopology, AllPairsConnected) {
  const AsTopology topo = make_reference_topology();
  const auto ids = topo.as_ids();
  EXPECT_GT(ids.size(), 20u);
  for (const AsId a : ids) {
    for (const AsId b : ids) {
      EXPECT_NO_THROW((void)topo.as_path_hops(a, b));
    }
  }
}

TEST(ReferenceTopology, InstitutionAsCountriesMatchTable1) {
  const AsTopology topo = make_reference_topology();
  using namespace refas;
  EXPECT_EQ(topo.country_of_as(kAs1), kHungary);
  EXPECT_EQ(topo.country_of_as(kAs2), kItaly);
  EXPECT_EQ(topo.country_of_as(kAs3), kHungary);
  EXPECT_EQ(topo.country_of_as(kAs4), kFrance);
  EXPECT_EQ(topo.country_of_as(kAs5), kFrance);
  EXPECT_EQ(topo.country_of_as(kAs6), kPoland);
}

TEST(ReferenceTopology, ChinesePathsAreLongerThanEuropean) {
  const AsTopology topo = make_reference_topology();
  using namespace refas;
  const int eu = topo.as_path_hops(kAs1, kAs2);
  const int cn = topo.as_path_hops(kAs1, kCnIspFirst);
  EXPECT_GT(cn, eu);
}

TEST(ReferenceTopology, HopCountsAreForwardReverseAsymmetric) {
  const AsTopology topo = make_reference_topology();
  using namespace refas;
  const Endpoint eu{Ipv4Addr{20, 0, 0, 5}, kAs2, kItaly, Region::kEurope, 2};
  // Scan a few remote endpoints; at least one pair must differ between
  // directions (the asymmetry the paper's §III-C worries about).
  int asymmetric = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    const Endpoint cn{Ipv4Addr{30, 0, 0, static_cast<std::uint8_t>(i + 1)},
                      kCnIspFirst, kChina, Region::kAsia, 4};
    if (topo.path(eu, cn).hops != topo.path(cn, eu).hops) ++asymmetric;
  }
  EXPECT_GT(asymmetric, 0);
}

TEST(RegionNames, Render) {
  EXPECT_EQ(to_string(Region::kEurope), "EU");
  EXPECT_EQ(to_string(Region::kAsia), "AS");
  EXPECT_EQ(to_string(Region::kNorthAmerica), "NA");
  EXPECT_EQ(to_string(Region::kOther), "OT");
}

}  // namespace
}  // namespace peerscope::net
