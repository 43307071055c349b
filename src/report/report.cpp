#include "report/report.hpp"

#include <sstream>

#include "analysis/checkpoint_model.hpp"
#include "analysis/criticality.hpp"
#include "analysis/fit.hpp"
#include "analysis/pvf.hpp"
#include "analysis/spatial.hpp"
#include "util/table.hpp"

namespace phifi::report {

using analysis::CategoryCriticality;
using analysis::CheckpointPlan;
using analysis::criticality_table;
using analysis::due_pvf;
using analysis::machine_mtbf_days;
using analysis::machine_mtbf_seconds;
using analysis::optimal_checkpoint;
using analysis::recommend_mitigation;
using analysis::sdc_pvf;
using fi::ErrorPattern;
using fi::kPatternCount;


namespace {

void render_outcome_row(std::ostringstream& os, const std::string& label,
                        const fi::OutcomeTally& tally) {
  os << "| " << label << " | " << tally.total() << " | "
     << util::fmt_percent(tally.masked_rate()) << " | "
     << util::fmt_percent(tally.sdc_rate()) << " | "
     << util::fmt_percent(tally.due_rate()) << " |\n";
}

}  // namespace

std::string render_report(const ReportInputs& inputs) {
  const fi::CampaignResult& campaign = *inputs.campaign;
  std::ostringstream os;

  os << "# Reliability report: " << campaign.workload << "\n\n";
  os << "Fault-injection campaign of " << campaign.overall.total()
     << " injected faults (" << campaign.not_injected
     << " retried), CAROL-FI-style selection.\n\n";

  os << "## Outcomes\n\n"
     << "| slice | injections | masked | SDC | DUE |\n"
     << "|---|---|---|---|---|\n";
  render_outcome_row(os, "overall", campaign.overall);
  for (fi::FaultModel model : fi::kAllFaultModels) {
    render_outcome_row(
        os, std::string("model ") + std::string(to_string(model)),
        campaign.by_model[static_cast<std::size_t>(model)]);
  }
  if (campaign.decided.total() > 0) {
    render_outcome_row(os, "decided (machine check)", campaign.decided);
  }
  os << "\n";

  os << "## Execution-time windows\n\n"
     << "| window | injections | SDC PVF | DUE PVF |\n"
     << "|---|---|---|---|\n";
  for (std::size_t w = 0; w < campaign.by_window.size(); ++w) {
    const auto& tally = campaign.by_window[w];
    os << "| " << (w + 1) << "/" << campaign.by_window.size() << " | "
       << tally.total() << " | " << util::fmt(sdc_pvf(tally).point, 1)
       << "% | " << util::fmt(due_pvf(tally).point, 1) << "% |\n";
  }
  os << "\n";

  os << "## Code-portion criticality\n\n"
     << "| portion | injections | SDC rate | DUE rate | recommended "
        "mitigation |\n"
     << "|---|---|---|---|---|\n";
  for (const CategoryCriticality& row : criticality_table(campaign, 5)) {
    os << "| " << row.category << " | " << row.injections << " | "
       << util::fmt_percent(row.sdc_rate) << " | "
       << util::fmt_percent(row.due_rate) << " | "
       << recommend_mitigation(row, inputs.algebraic) << " |\n";
  }
  os << "\n";

  if (inputs.counters != nullptr && inputs.counters->bytes_total() > 0) {
    const phi::CounterSnapshot& counters = *inputs.counters;
    os << "## Workload character (golden run)\n\n"
       << "| counter | value |\n"
       << "|---|---|\n"
       << "| flops | " << counters.flops << " |\n"
       << "| bytes read | " << counters.bytes_read << " |\n"
       << "| bytes written | " << counters.bytes_written << " |\n"
       << "| bytes total | " << counters.bytes_total() << " |\n"
       << "| arithmetic intensity [flop/B] | "
       << util::fmt(counters.arithmetic_intensity(), 2) << " |\n"
       << "| kernel launches | " << counters.kernel_launches << " |\n";
    if (inputs.golden_seconds > 0.0) {
      os << "| GFLOP/s | "
         << util::fmt(static_cast<double>(counters.flops) /
                          inputs.golden_seconds / 1e9,
                      2)
         << " |\n";
    }
    os << "\nHigher arithmetic intensity means longer data residency in "
          "registers and cache relative to memory traffic - the paper's "
          "Sec. 3.2/4.2 mechanism for why compute-bound codes show "
          "different FIT rates than memory-bound ones.\n\n";
  }

  if (inputs.beam != nullptr) {
    const radiation::BeamResult& beam = *inputs.beam;
    os << "## Beam experiment\n\n"
       << "SDC FIT: **" << util::fmt(beam.sdc_fit.fit, 1) << "** ["
       << util::fmt(beam.sdc_fit.fit_lo, 1) << ", "
       << util::fmt(beam.sdc_fit.fit_hi, 1) << "], DUE FIT: **"
       << util::fmt(beam.due_fit.fit, 1) << "** ["
       << util::fmt(beam.due_fit.fit_lo, 1) << ", "
       << util::fmt(beam.due_fit.fit_hi, 1) << "] at sea level ("
       << beam.runs << " runs, fluence " << util::fmt(beam.fluence, 0)
       << " n/cm^2).\n\n";

    os << "Spatial patterns of the SDCs: ";
    for (int p = 1; p < kPatternCount; ++p) {
      const auto pattern = static_cast<ErrorPattern>(p);
      if (p > 1) os << ", ";
      os << to_string(pattern) << " "
         << util::fmt_percent(beam.patterns.fraction(pattern));
    }
    os << ".\n\n";

    os << "Machine-scale view (" << util::fmt(inputs.trinity_boards, 0)
       << " boards): one SDC every "
       << util::fmt(machine_mtbf_days(beam.sdc_fit.fit,
                                      inputs.trinity_boards),
                    1)
       << " days, one DUE every "
       << util::fmt(machine_mtbf_days(beam.due_fit.fit,
                                      inputs.trinity_boards),
                    1)
       << " days.\n\n";

    const double mtbf = machine_mtbf_seconds(beam.due_fit.fit,
                                             inputs.trinity_boards);
    if (mtbf > 0.0) {
      const CheckpointPlan plan =
          optimal_checkpoint(mtbf, inputs.checkpoint_cost_seconds);
      os << "With a " << util::fmt(inputs.checkpoint_cost_seconds, 0)
         << " s checkpoint cost, the Young/Daly-optimal interval against "
            "this DUE rate is "
         << util::fmt(plan.interval_seconds / 60.0, 1) << " min at "
         << util::fmt_percent(plan.waste_fraction)
         << " machine-time waste.\n\n";
    }

    os << "Imprecise-computing leverage: accepting 0.5% / 2% relative "
          "error removes "
       << util::fmt(beam.tolerance.reduction_percent(0.005), 1) << "% / "
       << util::fmt(beam.tolerance.reduction_percent(0.02), 1)
       << "% of the SDC FIT.\n";
  }
  return os.str();
}

}  // namespace phifi::report
