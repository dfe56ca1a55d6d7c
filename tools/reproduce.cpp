#include "tools/reproduce.hpp"

#include <array>
#include <iostream>
#include <optional>
#include <sstream>

#include "aware/paper.hpp"
#include "exp/supervisor.hpp"
#include "net/topology.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::tools {

namespace {

std::string md(double v, int precision = 1) {
  return util::TextTable::num(v, precision);
}

std::string md_opt(const std::optional<double>& v) {
  return v ? md(*v) : std::string{"–"};
}

std::string md_paper(double v) {
  return v < 0 ? std::string{"–"} : md(v);
}

/// Dash row fragment for an application whose run produced no data:
/// `cells` dash cells joined in table syntax.
std::string missing_cells(int cells) {
  std::string out;
  for (int i = 0; i < cells; ++i) out += " – |";
  return out;
}

}  // namespace

int reproduce(const ReproduceOptions& options) {
  const net::AsTopology topo = net::make_reference_topology();

  // Specs [0..2] are the paper's three applications (report row order),
  // [3] the PPLive-Popular panel for Figure 2.
  std::vector<exp::RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants(), p2p::SystemProfile::pplive_popular()}) {
    exp::RunSpec spec;
    spec.profile = std::move(profile);
    spec.seed = options.seed;
    spec.duration = util::SimTime::seconds(options.seconds);
    specs.push_back(std::move(spec));
  }

  exp::SupervisorConfig supervision;
  supervision.retries = options.retries;
  supervision.deadline_s = options.deadline_s;
  supervision.resume = options.resume;
  supervision.journal =
      options.output.parent_path() / "experiment.journal";

  std::cerr << "reproduce: running PPLive, SopCast, TVAnts, "
               "PPLive-Popular ("
            << options.seconds << " s each, seed " << options.seed
            << (options.resume ? ", resuming" : "") << ")...\n";
  util::ThreadPool pool;
  const auto outcome = supervise_runs(topo, specs, pool, supervision);
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const auto& run = outcome.runs[i];
    std::cerr << "reproduce: " << specs[i].profile.name << ": "
              << exp::to_string(run.state);
    if (run.attempts > 1) std::cerr << " (" << run.attempts << " attempts)";
    if (!run.error.empty()) std::cerr << " — " << run.error;
    std::cerr << '\n';
  }
  if (outcome.succeeded() == 0) {
    std::cerr << "reproduce: no run produced results; no report written\n";
    return 1;
  }

  const auto app_name = [&](std::size_t i) {
    return specs[i].profile.name;
  };
  // Every table, figure and claim below reads these, computed once per
  // run that produced results: [0..2] the main runs, [3] Popular, which
  // only Figure 2 reads.
  std::array<std::optional<aware::RunProducts>, 4> products;
  for (std::size_t i = 0; i < 3; ++i) {
    if (!outcome.runs[i].ok()) continue;
    const auto& data = outcome.runs[i].result->observations;
    products[i] = {aware::summarize(data), aware::self_bias(data),
                   aware::awareness_table(data), aware::geo_breakdown(data),
                   aware::as_traffic_matrix(data)};
  }
  if (outcome.runs[3].ok()) {
    products[3].emplace().as_matrix =
        aware::as_traffic_matrix(outcome.runs[3].result->observations);
  }

  std::ostringstream out;
  out << "# PeerScope reproduction report\n\n"
      << "Paper: *Network Awareness of P2P Live Streaming Applications* "
         "(IPDPS 2009).\n"
      << "Configuration: " << options.seconds << " simulated seconds, seed "
      << options.seed << ", Table I testbed, reference topology. Counts are "
      << "scaled (see DESIGN.md §6); percentages and ratios compare "
      << "directly.\n";

  if (!outcome.complete()) {
    out << "\n> **Partial results.** ";
    for (const auto& run : outcome.runs) {
      if (run.ok()) continue;
      out << run.spec << " " << exp::to_string(run.state)
          << (run.error.empty() ? std::string{}
                                : " (" + run.error + ")")
          << "; ";
    }
    out << "affected rows are dashed below.\n";
  }

  // ------------------------------------------------------------ Table II
  out << "\n## Table II — experiment summary\n\n"
      << "| App | src | RX kbps (mean/max) | TX kbps (mean/max) | peers "
         "(mean/max) | contrib RX | contrib TX | observed |\n"
      << "|---|---|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& paper = aware::kPaperTable2[i];
    out << "| " << paper.app << " | paper | " << md(paper.rx_mean, 0) << " / "
        << md(paper.rx_max, 0) << " | " << md(paper.tx_mean, 0) << " / "
        << md(paper.tx_max, 0) << " | " << md(paper.peers_mean, 0) << " / "
        << md(paper.peers_max, 0) << " | " << md(paper.contrib_rx_mean, 0)
        << " | " << md(paper.contrib_tx_mean, 0) << " | "
        << md(paper.observed_total, 0) << " |\n";
    if (!products[i]) {
      out << "| | ours |" << missing_cells(6) << '\n';
      continue;
    }
    const auto& s = *products[i]->summary;
    out << "| | ours | " << md(s.rx_kbps_mean, 0) << " / "
        << md(s.rx_kbps_max, 0) << " | " << md(s.tx_kbps_mean, 0) << " / "
        << md(s.tx_kbps_max, 0) << " | " << md(s.all_peers_mean, 0) << " / "
        << md(static_cast<double>(s.all_peers_max), 0) << " | "
        << md(s.contrib_rx_mean, 0) << " | " << md(s.contrib_tx_mean, 0)
        << " | " << md(static_cast<double>(s.observed_total), 0) << " |\n";
  }

  // ----------------------------------------------------------- Table III
  out << "\n## Table III — self-induced bias\n\n"
      << "| App | src | contrib peer % | contrib bytes % | all peer % | "
         "all bytes % |\n|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& paper = aware::kPaperTable3[i];
    out << "| " << paper.app << " | paper | " << md(paper.contrib_peer_pct, 2)
        << " | " << md(paper.contrib_bytes_pct, 2) << " | "
        << md(paper.all_peer_pct, 2) << " | " << md(paper.all_bytes_pct, 2)
        << " |\n";
    if (!products[i]) {
      out << "| | ours |" << missing_cells(4) << '\n';
      continue;
    }
    const auto& bias = *products[i]->bias;
    out << "| | ours | " << md(bias.contributors_peer_pct, 2) << " | "
        << md(bias.contributors_bytes_pct, 2) << " | "
        << md(bias.all_peers_peer_pct, 2) << " | "
        << md(bias.all_peers_bytes_pct, 2) << " |\n";
  }

  // ------------------------------------------------------------ Table IV
  out << "\n## Table IV — network awareness\n\n"
      << "| Net | App | src | B′D | P′D | BD | PD | B′U | P′U | BU | PU |\n"
      << "|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (std::size_t entry = 0; entry < std::size(aware::kPaperTable4); ++entry) {
    const auto& paper = aware::kPaperTable4[entry];
    out << "| " << paper.metric << " | " << paper.app << " | paper | "
        << md_paper(paper.bpd) << " | " << md_paper(paper.ppd) << " | "
        << md_paper(paper.bd) << " | " << md_paper(paper.pd) << " | "
        << md_paper(paper.bpu) << " | " << md_paper(paper.ppu) << " | "
        << md_paper(paper.bu) << " | " << md_paper(paper.pu) << " |\n";
    const auto& run = products[entry % 3];
    if (!run) {
      out << "| | | ours |" << missing_cells(8) << '\n';
      continue;
    }
    const auto& measured = (*run->awareness)[entry / 3];
    out << "| | | ours | " << md_opt(measured.download.b_prime_pct) << " | "
        << md_opt(measured.download.p_prime_pct) << " | "
        << md_opt(measured.download.b_pct) << " | "
        << md_opt(measured.download.p_pct) << " | "
        << md_opt(measured.upload.b_prime_pct) << " | "
        << md_opt(measured.upload.p_prime_pct) << " | "
        << md_opt(measured.upload.b_pct) << " | "
        << md_opt(measured.upload.p_pct) << " |\n";
  }

  // ------------------------------------------------------------ Figure 1
  out << "\n## Figure 1 — geographical breakdown (percent)\n\n"
      << "| App | CC | peers | RX bytes | TX bytes |\n|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    if (!products[i]) {
      out << "| " << app_name(i) << " |" << missing_cells(4) << '\n';
      continue;
    }
    for (const auto& share : *products[i]->geo) {
      out << "| " << outcome.runs[i].result->observations.app << " | "
          << (share.cc.known() ? share.cc.to_string() : std::string{"*"})
          << " | " << md(share.peer_pct) << " | " << md(share.rx_bytes_pct)
          << " | " << md(share.tx_bytes_pct) << " |\n";
    }
  }

  // ------------------------------------------------------------ Figure 2
  out << "\n## Figure 2 — intra/inter-AS probe traffic ratio R\n\n"
      << "Same-subnet pairs excluded per §IV-B; the with-LAN column shows "
         "the raw diagonal dominance.\n\n"
      << "| App | paper R | ours R | ours incl. LAN pairs |\n"
      << "|---|---|---|---|\n";
  const auto paper_ratio = [](const std::string& app) {
    for (const auto& paper : aware::kPaperFig2Ratios) {
      if (app == paper.app) return paper.ratio;
    }
    return aware::kDash;
  };
  for (std::size_t i = 0; i < 3; ++i) {
    const double paper_r = paper_ratio(app_name(i));
    if (!products[i]) {
      out << "| " << app_name(i) << " | " << md(paper_r, 2) << " |"
          << missing_cells(2) << '\n';
      continue;
    }
    const auto& matrix = *products[i]->as_matrix;
    out << "| " << app_name(i) << " | " << md(paper_r, 2) << " | "
        << md(matrix.intra_inter_ratio, 2) << " | "
        << md(matrix.intra_inter_ratio_with_lan, 2) << " |\n";
  }
  if (products[3]) {
    const auto& matrix = *products[3]->as_matrix;
    out << "| PPLive-Popular | (strongest locality) | "
        << md(matrix.intra_inter_ratio, 2) << " | "
        << md(matrix.intra_inter_ratio_with_lan, 2) << " |\n";
  } else {
    out << "| PPLive-Popular | (strongest locality) |" << missing_cells(2)
        << '\n';
  }

  // --------------------------------------------------------- claims
  const auto run_products = [&](std::size_t i) {
    return products[i] ? &*products[i] : nullptr;
  };
  aware::PaperRuns runs;
  runs.pplive = run_products(0);
  runs.sopcast = run_products(1);
  runs.tvants = run_products(2);
  runs.popular = run_products(3);
  out << "\n## Shape claims\n\n"
      << "The conclusions the paper draws from the tables and figures "
         "above, judged on these runs (src/aware/paper.cpp). A claim "
         "below its minimum duration (EXPERIMENTS.md) is not judged; a "
         "broken one makes `reproduce` exit "
      << aware::kExitClaimBroken << ".\n\n";
  const int claims_code =
      aware::judge(aware::paper_claims(runs), options.seconds, out);
  if (claims_code != 0) {
    std::cerr << "reproduce: a shape claim is BROKEN (see the report's "
                 "Shape claims section)\n";
  }

  out << "\n---\nGenerated by `peerscope reproduce`. Every number above is "
         "deterministic for the given seed.\n";

  try {
    util::write_file_atomic(options.output, out.str());
  } catch (const std::exception& error) {
    std::cerr << "reproduce: cannot write " << options.output << ": "
              << error.what() << '\n';
    return 1;
  }
  std::cerr << "reproduce: wrote " << options.output << '\n';
  return outcome.complete() ? claims_code : kExitPartialSuccess;
}

}  // namespace peerscope::tools
