// Degradation sweep: does the paper's methodology survive a hostile
// network? Re-runs the three applications under increasing impairment
// (bursty loss, capture reordering/duplication, link outages, peer
// churn) and reports, per level, the Table IV BW row and the Figure 2
// intra/inter-AS ratios next to the clean baseline, plus the recovery
// error. The conclusions must be robust: the BW preference and the
// ratio ordering have to survive <= 5% bursty loss with churn, or the
// reproduction would only hold on lossless campus captures.
//
// Impaired levels analyse with the robust BW estimator (ipg_discard=2):
// capture duplication/reordering fabricate near-zero inter-packet gaps
// that the plain minimum would read as infinite-capacity paths.
#include <cmath>
#include <iostream>

#include "bench/harness.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

struct Level {
  const char* name;
  sim::ImpairmentSpec impairment;
  p2p::ChurnSpec churn;
  [[nodiscard]] bool faulty() const {
    return impairment.enabled() || churn.enabled();
  }
};

std::vector<Level> make_levels() {
  std::vector<Level> levels;
  levels.push_back({"clean", {}, {}});

  Level mild{"loss 1% burst 3", {}, {}};
  mild.impairment.loss_rate = 0.01;
  mild.impairment.loss_burst = 3.0;
  levels.push_back(mild);

  Level medium{"loss 3% + reorder/dup", {}, {}};
  medium.impairment.loss_rate = 0.03;
  medium.impairment.loss_burst = 3.0;
  medium.impairment.reorder_rate = 0.005;
  medium.impairment.duplicate_rate = 0.005;
  levels.push_back(medium);

  Level harsh{"loss 5% + churn + outages", {}, {}};
  harsh.impairment.loss_rate = 0.05;
  harsh.impairment.loss_burst = 4.0;
  harsh.impairment.reorder_rate = 0.01;
  harsh.impairment.duplicate_rate = 0.01;
  harsh.impairment.outage_per_s = 0.02;  // one ~200 ms outage per 50 s
  harsh.churn.probe_session_s = 120.0;
  harsh.churn.bg_session_s = 90.0;
  harsh.churn.nat_connect_failure = 0.3;
  harsh.churn.firewall_connect_failure = 0.3;
  levels.push_back(harsh);
  return levels;
}

double b_prime(const aware::AwarenessCell& cell) {
  return cell.b_prime_pct.value_or(0.0);
}
double p_prime(const aware::AwarenessCell& cell) {
  return cell.p_prime_pct.value_or(0.0);
}

struct LevelOutcome {
  // Per app [pplive, sopcast, tvants].
  aware::AwarenessCell bw[3];
  double as_ratio[3] = {0, 0, 0};
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
};

LevelOutcome analyse(const std::vector<exp::RunResult>& results,
                     bool faulty) {
  LevelOutcome outcome;
  aware::AwarenessConfig cfg;
  if (faulty) cfg.bw.ipg_discard = 2;
  for (std::size_t app = 0; app < results.size(); ++app) {
    const auto rows = aware::awareness_table(results[app].observations, cfg);
    outcome.bw[app] = rows[0].download;  // rows[0] is the BW metric
    outcome.as_ratio[app] =
        aware::as_traffic_matrix(results[app].observations).intra_inter_ratio;
    outcome.timeouts += results[app].counters.timeouts;
    outcome.retries += results[app].counters.chunks_retried;
    outcome.crashes += results[app].counters.probe_crashes;
  }
  return outcome;
}

}  // namespace

int main() {
  bench::Session session{"degradation"};
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Degradation sweep: Table IV BW row + Figure 2 ratios "
               "under impairment ===\n\n";

  const auto levels = make_levels();
  std::vector<LevelOutcome> outcomes;
  outcomes.reserve(levels.size());

  constexpr const char* kApps[3] = {"PPLive", "SopCast", "TVAnts"};
  util::TextTable table{{"level", "app", "B'D%", "P'D%", "R(AS)",
                         "timeouts", "retries", "crashes"}};
  for (const auto& level : levels) {
    const auto results =
        run_three_apps(topo, cfg, [&level](exp::RunSpec& spec) {
          spec.impairment = level.impairment;
          spec.churn = level.churn;
        });
    outcomes.push_back(analyse(results, level.faulty()));
    const LevelOutcome& outcome = outcomes.back();
    for (std::size_t app = 0; app < 3; ++app) {
      table.add_row({app == 0 ? level.name : "", kApps[app],
                     fmt(b_prime(outcome.bw[app])),
                     fmt(p_prime(outcome.bw[app])),
                     fmt(outcome.as_ratio[app], 2),
                     app == 0 ? util::TextTable::count(outcome.timeouts) : "",
                     app == 0 ? util::TextTable::count(outcome.retries) : "",
                     app == 0 ? util::TextTable::count(outcome.crashes) : ""});
    }
    table.add_rule();
  }
  std::cout << table.render();

  // Recovery error: how far each impaired level's estimates drift from
  // the clean baseline (mean absolute difference over the three apps).
  const LevelOutcome& base = outcomes.front();
  std::cout << "\nrecovery error vs clean baseline (mean |delta| over apps):\n";
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    double db = 0, dp = 0;
    for (std::size_t app = 0; app < 3; ++app) {
      db += std::abs(b_prime(outcomes[i].bw[app]) - b_prime(base.bw[app]));
      dp += std::abs(p_prime(outcomes[i].bw[app]) - p_prime(base.bw[app]));
    }
    std::cout << "  " << levels[i].name << ": B'D " << fmt(db / 3.0)
              << " pts, P'D " << fmt(dp / 3.0) << " pts\n";
  }

  // The conclusions must hold at every level, clean through 5% loss +
  // churn. (The absolute SopCast R < 1.5 is bench_fig2's clean-run
  // claim: a ratio near 1 wobbles across the line once loss thins the
  // byte counts, but the Figure 2 ordering itself is stable.)
  std::vector<aware::Claim> claims;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const LevelOutcome& o = outcomes[i];
    const std::string level = std::string{levels[i].name} + ":";
    for (std::size_t app = 0; app < 3; ++app) {
      claims.push_back(
          aware::bw_preference(level + " " + kApps[app], 30, o.bw[app]));
    }
    claims.push_back(aware::fig2_ordering(level, 300, o.as_ratio[0],
                                          o.as_ratio[1], o.as_ratio[2]));
    if (i > 0) {
      claims.push_back(
          {level + " fault injection visibly active",
           30,
           {{"timeouts", static_cast<double>(o.timeouts)},
            {"retries", static_cast<double>(o.retries)},
            {"crashes", static_cast<double>(o.crashes)}},
           o.timeouts != 0 || o.retries != 0 || o.crashes != 0});
    }
  }
  return judge_claims(claims, cfg.seconds);
}
