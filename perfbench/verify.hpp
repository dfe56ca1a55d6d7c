// Output checks for the benchmark: a fixed-seed digest of the Tables
// II-IV numbers and Swarm::counters(), the paper's shape claims, the
// Table IV gap to the paper, and the reference digests kept beside
// the benchmark in reference.txt.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "aware/experiment.hpp"
#include "aware/report.hpp"
#include "p2p/swarm.hpp"

namespace perfbench {

namespace pa = peerscope::aware;

/// The report stage's outputs for one application (Tables II-IV and the
/// Figure 2 AS matrix).
struct Tables {
  pa::ExperimentSummary summary;
  pa::SelfBias bias;
  std::vector<pa::AwarenessRow> table4;
  pa::AsMatrix matrix;
};

/// FNV-1a over the exact bits of every reported number and every
/// Swarm::counters() field. Equal digests mean byte-identical results.
[[nodiscard]] std::uint64_t tables_digest(
    const Tables& tables, const peerscope::p2p::Swarm::Counters& counters);

/// FNV-1a over every observation field, each probe's list sorted by
/// remote address (flow-table iteration order is not part of the
/// result). Online and offline extraction must agree on it.
[[nodiscard]] std::uint64_t observations_digest(
    const pa::ExperimentObservations& data);

[[nodiscard]] std::string hex(std::uint64_t digest);

/// One of the paper's shape claims, evaluated on one set of app
/// results. `apps` are the applications whose runs fail when it fails.
struct ShapeResult {
  std::string claim;
  std::vector<std::string> apps;
  bool pass = false;
};

/// Shape claims are stated at the reproduction's 300 simulated
/// seconds; shorter runs (the self-test) skip them.
inline constexpr std::int64_t kShapeClaimSeconds = 300;

/// Every claim whose applications are all present in `tables` (keyed
/// by application name).
[[nodiscard]] std::vector<ShapeResult> shape_checks(
    const std::map<std::string, Tables>& tables);

/// Mean |ours - paper| in percentage points over the Table IV cells
/// the paper prints, for the given applications. Returns the mean and
/// adds the number of cells used to `cells`.
[[nodiscard]] double table4_gap_pp(const std::map<std::string, Tables>& tables,
                                   std::size_t* cells);

/// Reference digests: one line per (seed, configuration key) as
/// `<seed> <key> <hex>`; '#' starts a comment. Throws on a malformed
/// line or an unreadable file.
using ReferenceTable = std::map<std::pair<std::uint64_t, std::string>,
                                std::uint64_t>;
[[nodiscard]] ReferenceTable read_reference(const std::filesystem::path& path);

}  // namespace perfbench
