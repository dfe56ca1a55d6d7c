// The paper oracle: what *Network Awareness of P2P Live Streaming
// Applications* publishes (Tables II-IV and the Figure 2 ratios) and
// the shape claims it draws from them, stated once. Benches, the
// reproduction report and the benchmark read the published values
// from here, evaluate the one claim list against measured runs, and
// judge it with one judge: a broken claim fails the run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aware/experiment.hpp"
#include "aware/report.hpp"

namespace peerscope::aware {

// ---------------------------------------------------------------------
// Published values (the paper's tables), for side-by-side comparison.

/// Table II row.
struct PaperSummary {
  const char* app;
  double rx_mean, rx_max, tx_mean, tx_max;
  double peers_mean, peers_max;
  double contrib_rx_mean, contrib_rx_max;
  double contrib_tx_mean, contrib_tx_max;
  double observed_total;
};

inline constexpr PaperSummary kPaperTable2[] = {
    {"PPLive", 552, 934, 3384, 11818, 23101, 39797, 391, 841, 1025, 2570,
     181729},
    {"SopCast", 449, 542, 293, 1070, 776, 1233, 139, 229, 152, 243, 4057},
    {"TVAnts", 419, 478, 464, 1001, 229, 270, 58, 90, 75, 118, 550},
};

/// Table III row.
struct PaperSelfBias {
  const char* app;
  double contrib_peer_pct, contrib_bytes_pct;
  double all_peer_pct, all_bytes_pct;
};

inline constexpr PaperSelfBias kPaperTable3[] = {
    {"PPLive", 0.95, 3.54, 0.10, 3.33},
    {"SopCast", 10.25, 17.71, 4.60, 19.45},
    {"TVAnts", 29.82, 56.31, 15.56, 56.06},
};

/// Table IV cell: {B'D, P'D, BD, PD, B'U, P'U, BU, PU}; negative means
/// the paper prints "-".
struct PaperAwareness {
  const char* metric;
  const char* app;
  double bpd, ppd, bd, pd;
  double bpu, ppu, bu, pu;
};

inline constexpr double kDash = -1.0;

inline constexpr PaperAwareness kPaperTable4[] = {
    {"BW", "PPLive", 95.9, 85.9, 95.6, 86.1, kDash, kDash, kDash, kDash},
    {"BW", "SopCast", 98.2, 83.3, 98.5, 85.3, kDash, kDash, kDash, kDash},
    {"BW", "TVAnts", 96.5, 83.2, 98.2, 89.6, kDash, kDash, kDash, kDash},
    {"AS", "PPLive", 6.5, 0.6, 12.8, 1.3, 0.8, 0.2, 1.8, 0.5},
    {"AS", "SopCast", 0.6, 0.7, 3.5, 3.9, 1.7, 0.7, 6.4, 3.9},
    {"AS", "TVAnts", 7.3, 3.3, 32.0, 13.5, 11.6, 1.8, 30.1, 9.6},
    {"CC", "PPLive", 6.5, 0.6, 13.1, 1.4, 1.1, 0.3, 2.1, 0.6},
    {"CC", "SopCast", 0.6, 0.8, 4.0, 4.4, 1.7, 0.8, 7.2, 4.4},
    {"CC", "TVAnts", 7.6, 4.0, 37.9, 16.3, 14.3, 3.1, 37.7, 12.5},
    {"NET", "PPLive", kDash, kDash, 9.9, 0.8, kDash, kDash, 1.4, 0.3},
    {"NET", "SopCast", kDash, kDash, 2.0, 2.6, kDash, kDash, 3.5, 2.6},
    {"NET", "TVAnts", kDash, kDash, 18.1, 6.7, kDash, kDash, 18.1, 5.4},
    {"HOP", "PPLive", 42.2, 41.1, 51.4, 42.4, 30.4, 40.4, 31.7, 41.0},
    {"HOP", "SopCast", 29.0, 40.7, 37.9, 48.0, 45.9, 43.0, 56.9, 49.8},
    {"HOP", "TVAnts", 62.1, 55.0, 81.1, 71.9, 57.8, 53.0, 78.9, 67.2},
};

/// Figure 2 intra/inter-AS traffic ratios reported in §IV-B.
struct PaperAsRatio {
  const char* app;
  double ratio;
};

inline constexpr PaperAsRatio kPaperFig2Ratios[] = {
    {"SopCast", 0.2},
    {"TVAnts", 1.93},
    {"PPLive", 0.98},
};

// ---------------------------------------------------------------------
// Shape claims.

/// One measured value a claim compares, printed next to its verdict.
struct ClaimValue {
  std::string label;
  double value = 0;
};

/// One shape claim evaluated on measured results. `min_seconds` is the
/// shortest simulated duration the claim is made at (EXPERIMENTS.md,
/// "Shape claims"): shorter runs print it as not judged. `holds` is
/// empty when an application the claim reads produced no result.
struct Claim {
  std::string text;
  std::int64_t min_seconds = 0;
  std::vector<ClaimValue> values;
  std::optional<bool> holds;
};

/// The exit code of a run in which a judged claim is broken.
inline constexpr int kExitClaimBroken = 11;

/// Prints one line per claim — `holds`, `BROKEN`, `not judged (needs
/// ≥ N s)` or `not judged (no result)`, then the text and values — as a
/// markdown list. Returns kExitClaimBroken when a claim with
/// min_seconds <= simulated_seconds is broken, else 0.
int judge(std::span<const Claim> claims, std::int64_t simulated_seconds,
          std::ostream& out);

/// The claim that `values` are strictly descending (a NaN breaks it).
[[nodiscard]] Claim descending(std::string text, std::int64_t min_seconds,
                               std::vector<ClaimValue> values);

/// "<subject> BW preference (B' > 90, P' > 65)": the strong bandwidth
/// preference of a Table IV BW download cell.
[[nodiscard]] Claim bw_preference(const std::string& subject,
                                  std::int64_t min_seconds,
                                  const AwarenessCell& cell);

/// "<subject> Fig2 ordering (R(TVAnts) > 1.5 and largest)": TVAnts keeps
/// a clear intra-AS preference and the largest R of the three
/// applications.
[[nodiscard]] Claim fig2_ordering(const std::string& subject,
                                  std::int64_t min_seconds, double r_pplive,
                                  double r_sopcast, double r_tvants);

/// What one run's tables and figures print, and so what the claims
/// about them read. Whoever renders a table fills its product and hands
/// the same value to paper_claims, so judging recomputes nothing (and
/// counts nothing twice in the aware.* metrics).
struct RunProducts {
  std::optional<ExperimentSummary> summary;            // Table II
  std::optional<SelfBias> bias;                        // Table III
  std::optional<std::vector<AwarenessRow>> awareness;  // Table IV
  std::optional<std::vector<GeoShare>> geo;            // Figure 1
  std::optional<AsMatrix> as_matrix;                   // Figure 2
};

/// The runs the paper's claims read; null where a run has no result.
struct PaperRuns {
  const RunProducts* pplive = nullptr;
  const RunProducts* sopcast = nullptr;
  const RunProducts* tvants = nullptr;
  /// The PPLive-Popular panel of Figure 2.
  const RunProducts* popular = nullptr;
};

/// The paper's shape claims over `runs`, in a fixed order. With
/// `artifact` set ("T2", "T3", "T4", "Fig1", "Fig2") only the claims
/// about that table or figure. A claim whose run or product is absent
/// is listed but not judged.
[[nodiscard]] std::vector<Claim> paper_claims(const PaperRuns& runs,
                                              std::string_view artifact = {});

}  // namespace peerscope::aware
