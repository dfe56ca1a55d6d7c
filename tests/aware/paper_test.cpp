#include "aware/paper.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"

namespace peerscope::aware {
namespace {

Claim sopcast_ratio_claim(bool holds) {
  return {"Fig2 R(SopCast) < 1.5", 300, {{"R", holds ? 1.38 : 2.47}}, holds};
}

TEST(Judge, BrokenClaimBelowItsDurationIsNotJudged) {
  const Claim claim = sopcast_ratio_claim(false);
  std::ostringstream out;
  EXPECT_EQ(judge({&claim, 1}, 30, out), 0);
  EXPECT_EQ(out.str(),
            "- not judged (needs ≥ 300 s): Fig2 R(SopCast) < 1.5 (R 2.47)\n");
}

TEST(Judge, BrokenClaimAtItsDurationFailsTheRun) {
  const Claim claims[] = {sopcast_ratio_claim(true),
                          sopcast_ratio_claim(false)};
  std::ostringstream out;
  EXPECT_EQ(judge(claims, 300, out), kExitClaimBroken);
  EXPECT_EQ(out.str(),
            "- holds: Fig2 R(SopCast) < 1.5 (R 1.38)\n"
            "- BROKEN: Fig2 R(SopCast) < 1.5 (R 2.47)\n");
  std::ostringstream holding;
  EXPECT_EQ(judge({claims, 1}, 900, holding), 0);
}

TEST(Judge, AppWithNoResultIsNotJudged) {
  PaperRuns runs;  // every application's run missing
  const std::vector<Claim> claims = paper_claims(runs);
  ASSERT_FALSE(claims.empty());
  std::ostringstream out;
  EXPECT_EQ(judge(claims, 900, out), 0);
  for (const Claim& claim : claims) {
    EXPECT_FALSE(claim.holds.has_value()) << claim.text;
    EXPECT_TRUE(claim.values.empty()) << claim.text;
    EXPECT_NE(out.str().find("- not judged (no result): " + claim.text + "\n"),
              std::string::npos)
        << claim.text;
  }
}

TEST(PaperClaims, ArtifactSelectsItsClaimsInListOrder) {
  const std::vector<Claim> all = paper_claims({});
  std::size_t selected = 0;
  for (const char* artifact : {"T2", "T3", "T4", "Fig1", "Fig2"}) {
    for (const Claim& claim : paper_claims({}, artifact)) {
      ASSERT_LT(selected, all.size());
      EXPECT_EQ(claim.text, all[selected].text);
      EXPECT_EQ(claim.text.rfind(std::string{artifact} + ' ', 0), 0u);
      ++selected;
    }
  }
  EXPECT_EQ(selected, all.size());
}

TEST(PaperClaims, CarryTheBenchmarkShapeCheckWording) {
  // The claims the benchmark's shape checks count, word for word, so
  // the benchmark can evaluate this list instead of its own copy.
  const std::vector<Claim> claims = paper_claims({});
  const auto has = [&](const std::string& text) {
    for (const Claim& claim : claims) {
      if (claim.text == text) return true;
    }
    return false;
  };
  for (const char* text :
       {"T2 peers(PPLive) > peers(SopCast) > peers(TVAnts)",
        "T3 self-bias ordering TVAnts > SopCast > PPLive",
        "Fig2 R(TVAnts) > R(SopCast)", "T2 PPLive TX > 3x its RX",
        "Fig2 PPLive with-LAN ratio > 3x subnet-excluded R",
        "Fig2 R(SopCast) < 1.5", "Fig2 R(TVAnts) > 1.5",
        "T3 SopCast byte share > peer share",
        "T3 TVAnts byte share > peer share",
        "T4 PPLive BW preference (B' > 90, P' > 65)",
        "T4 SopCast BW preference (B' > 90, P' > 65)",
        "T4 TVAnts BW preference (B' > 90, P' > 65)",
        "T4 PPLive no HOP awareness (|B' - P'| < 12)",
        "T4 SopCast no HOP awareness (|B' - P'| < 12)"}) {
    EXPECT_TRUE(has(text)) << text;
  }
}

TEST(PaperClaims, JudgingReadsTheProductsAndCountsNothingTwice) {
  // The claims read the products the tables already computed, so a
  // sidecar's aware.* counters count each product once.
  obs::MetricsRegistry registry;
  obs::install(&registry);
  ExperimentObservations data;
  data.app = "Any";
  const RunProducts products{summarize(data), self_bias(data),
                             awareness_table(data), geo_breakdown(data),
                             as_traffic_matrix(data)};
  const auto cells = [&] {
    return registry.snapshot().counters.at("aware.cells_evaluated");
  };
  const std::uint64_t computed = cells();
  PaperRuns runs;
  runs.pplive = runs.sopcast = runs.tvants = runs.popular = &products;
  const std::vector<Claim> claims = paper_claims(runs);
  const std::uint64_t after = cells();
  obs::install(nullptr);
  EXPECT_GT(computed, 0u);
  EXPECT_EQ(after, computed);
  for (const Claim& claim : claims) {
    EXPECT_TRUE(claim.holds.has_value()) << claim.text;
  }
}

TEST(PaperClaims, AbsentProductLeavesItsClaimsUnjudged) {
  RunProducts summary_only;
  summary_only.summary.emplace();
  PaperRuns runs;
  runs.pplive = runs.sopcast = runs.tvants = &summary_only;
  for (const Claim& claim : paper_claims(runs)) {
    EXPECT_EQ(claim.holds.has_value(), claim.text.rfind("T2 ", 0) == 0)
        << claim.text;
  }
}

TEST(PaperPredicates, ThresholdsAreStrict) {
  AwarenessCell cell;
  cell.b_prime_pct = 90.5;
  cell.p_prime_pct = 65.5;
  EXPECT_TRUE(*bw_preference("T4 X", 30, cell).holds);
  cell.p_prime_pct = 65.0;
  EXPECT_FALSE(*bw_preference("T4 X", 30, cell).holds);
  cell.p_prime_pct.reset();  // no packet-pair signal: not a preference
  EXPECT_FALSE(*bw_preference("T4 X", 30, cell).holds);

  EXPECT_TRUE(*fig2_ordering("clean:", 300, 0.9, 1.4, 3.3).holds);
  EXPECT_FALSE(*fig2_ordering("clean:", 300, 0.9, 1.4, 1.5).holds);
  EXPECT_FALSE(*fig2_ordering("clean:", 300, 3.4, 1.4, 3.3).holds);
  EXPECT_EQ(fig2_ordering("clean:", 300, 0.9, 1.4, 3.3).text,
            "clean: Fig2 ordering (R(TVAnts) > 1.5 and largest)");

  EXPECT_TRUE(*descending("a > b > c", 30, {{"a", 3}, {"b", 2}, {"c", 1}})
                   .holds);
  EXPECT_FALSE(*descending("a > b", 30, {{"a", 2}, {"b", 2}}).holds);
}

}  // namespace
}  // namespace peerscope::aware
