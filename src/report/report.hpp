// Markdown reliability report: one human-readable document per campaign,
// combining the outcome split, fault-model PVFs, time-window PVFs, the
// ranked criticality table with mitigation advice, and (when available)
// beam FIT rates with their machine-scale implications. This is the
// deliverable a CAROL-FI user hands to the application team.
#pragma once

#include <optional>
#include <string>

#include "core/campaign.hpp"
#include "phi/counters.hpp"
#include "radiation/beam.hpp"

namespace phifi::report {

struct ReportInputs {
  const fi::CampaignResult* campaign = nullptr;      ///< required
  const radiation::BeamResult* beam = nullptr;       ///< optional
  /// Device counters of the fault-free (golden) run: arithmetic intensity
  /// is the paper's Sec. 3.2/4.2 explainer for cross-workload FIT
  /// differences. Optional.
  const phi::CounterSnapshot* counters = nullptr;
  double golden_seconds = 0.0;  ///< golden run wall time, for GFLOP/s
  bool algebraic = false;  ///< workload class, for mitigation advice
  double trinity_boards = 19000.0;
  /// Checkpoint cost assumption for the interval recommendation, seconds.
  double checkpoint_cost_seconds = 60.0;
};

/// Renders the report as GitHub-flavored markdown.
std::string render_report(const ReportInputs& inputs);

}  // namespace phifi::report
