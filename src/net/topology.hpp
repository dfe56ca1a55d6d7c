// AS-level Internet topology and host-to-host path model.
//
// The paper's HOP metric derives hop counts from received TTLs, so the
// substrate must produce realistic, asymmetric hop counts: host access
// depth + border-to-border routed path through the AS graph. Latency is
// modelled as a geographic base delay plus a small per-hop component;
// it shapes chunk delivery times but none of the paper's statistics.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"
#include "net/types.hpp"
#include "util/sim_time.hpp"

namespace peerscope::net {

enum class Region : std::uint8_t { kEurope, kAsia, kNorthAmerica, kOther };

[[nodiscard]] std::string to_string(Region region);

/// Everything the path model needs to know about one attached host.
/// `router_depth` is the number of routers between the host and its AS
/// border (LAN hosts shallow, DSL hosts behind deeper aggregation).
struct Endpoint {
  Ipv4Addr addr;
  AsId as;
  CountryCode country;
  Region region = Region::kEurope;
  int router_depth = 2;
};

/// Result of routing between two endpoints.
struct PathInfo {
  int hops = 0;                    // routers decrementing TTL
  util::SimTime one_way_delay{0};  // propagation + per-hop processing
};

/// The AS graph. Small by construction (tens of ASes), so all-pairs
/// shortest paths are precomputed by repeated Dijkstra at finalize().
class AsTopology {
 public:
  /// `transit_hops`: routers crossed when a path transits this AS.
  /// `border_hops`: routers between an endpoint's first-hop region and
  /// the AS border (added once per endpoint AS).
  void add_as(AsId as, CountryCode country, Region region,
              int transit_hops = 2, int border_hops = 1);

  /// Undirected peering/transit link; both ASes must exist.
  void connect(AsId a, AsId b);

  /// Computes all-pairs AS-path router hops. Must be called after the
  /// graph is complete and before any path query.
  void finalize();

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] std::size_t as_count() const { return nodes_.size(); }
  /// All ASes in insertion order.
  [[nodiscard]] std::vector<AsId> as_ids() const;
  [[nodiscard]] bool contains(AsId as) const {
    return index_.contains(as);
  }
  [[nodiscard]] CountryCode country_of_as(AsId as) const;
  [[nodiscard]] Region region_of_as(AsId as) const;

  /// Router hops along the AS-level path from border of `a` to border
  /// of `b` (0 when a == b). Throws if either AS is unknown or the
  /// graph is disconnected between them.
  [[nodiscard]] int as_path_hops(AsId a, AsId b) const;

  /// Full host-to-host path. Hop count:
  ///   same subnet (/24)    -> 0 (direct L2, matching the paper's NET=HOP0)
  ///   same AS              -> depths + intra-AS core
  ///   different AS         -> depths + border hops + AS path + asymmetry
  /// Asymmetry is a deterministic function of the ordered (src, dst)
  /// pair: forward and reverse paths may differ by 0-2 hops (§III-C of
  /// the paper discusses exactly this directionality issue).
  [[nodiscard]] PathInfo path(const Endpoint& src, const Endpoint& dst) const;

 private:
  struct Node {
    AsId as;
    CountryCode country;
    Region region;
    int transit_hops;
    int border_hops;
    std::vector<std::size_t> neighbors;
  };

  [[nodiscard]] std::size_t index_of(AsId as) const;
  /// as_path_hops() on node indices.
  [[nodiscard]] int hops_between(std::size_t ia, std::size_t ib) const;
  [[nodiscard]] static util::SimTime base_delay(Region a, Region b,
                                                bool same_country);

  std::vector<Node> nodes_;
  std::unordered_map<AsId, std::size_t> index_;
  /// Flat AsId -> node index table for AS numbers below
  /// kDenseAsLimit, built at finalize() (kNoNode = unknown); the hash
  /// map answers the rest and every lookup before finalize().
  static constexpr std::uint32_t kDenseAsLimit = 1U << 16;
  static constexpr std::uint32_t kNoNode =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dense_index_;
  // dist_[i * nodes_.size() + j] = router hops border(i) -> border(j).
  std::vector<int> dist_;
  bool finalized_ = false;
};

/// Builds the topology used by all experiments: the six institution
/// ASes of Table I (AS1..AS6), home-ISP ASes (AS11..AS17), two European
/// transit carriers, and a set of Chinese / rest-of-world ASes reachable
/// through intercontinental transit. Deterministic; see topology.cpp
/// for the exact graph.
[[nodiscard]] AsTopology make_reference_topology();

/// AS numbers used by make_reference_topology(). Institution ASes match
/// Table I labels; the rest model the background swarm's homes.
namespace refas {
inline constexpr AsId kAs1{1};   // BME (HU)
inline constexpr AsId kAs2{2};   // PoliTO + UniTN (IT) -- GARR-like NREN
inline constexpr AsId kAs3{3};   // MT (HU)
inline constexpr AsId kAs4{4};   // ENST (FR)
inline constexpr AsId kAs5{5};   // FFT (FR)
inline constexpr AsId kAs6{6};   // WUT (PL)
// Home ISP ASes hosting the 7 home probes (one per "ASx" row).
inline constexpr AsId kHomeIspFirst{11};  // 11..17
inline constexpr std::uint32_t kHomeIspCount = 7;
// European transit.
inline constexpr AsId kEuTransit1{100};
inline constexpr AsId kEuTransit2{101};
// Intercontinental + Chinese ISPs.
inline constexpr AsId kIcTransit{200};
inline constexpr AsId kCnTransit{201};
inline constexpr AsId kCnIspFirst{210};  // 210..215 (6 Chinese eyeball ASes)
inline constexpr std::uint32_t kCnIspCount = 6;
// Rest-of-world eyeball ASes.
inline constexpr AsId kRowIspFirst{300};  // 300..305
inline constexpr std::uint32_t kRowIspCount = 6;
// Extra European eyeball ISPs (background European peers).
inline constexpr AsId kEuIspFirst{400};  // 400..405
inline constexpr std::uint32_t kEuIspCount = 6;
}  // namespace refas

}  // namespace peerscope::net
