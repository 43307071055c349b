#include "radiation/beam.hpp"

#include <bit>
#include <stdexcept>

#include "util/log.hpp"

namespace phifi::radiation {

BeamDraw BeamPlan::draw(std::uint64_t seed, std::uint64_t index) const {
  util::Rng rng(fi::trial_seed_for(seed, index));
  const double strikes_mean =
      sensitivity_->expected_strikes(fluence_per_run());
  BeamDraw draw;
  while (draw.runs < kMaxRunsPerAttempt) {
    ++draw.runs;
    const std::uint64_t strikes = rng.poisson(strikes_mean);
    draw.strikes += strikes;
    // The first strike that escapes the hardware decides the run (the beam
    // is tuned so two visible faults in one execution are negligible).
    for (std::uint64_t s = 0; s < strikes; ++s) {
      const StrikeOutcome outcome = sensitivity_->sample_strike(rng);
      switch (outcome.kind) {
        case StrikeOutcome::Kind::kAbsorbed:
          ++draw.absorbed;
          break;
        case StrikeOutcome::Kind::kMachineCheck:
          // MCA kills the offload before the program can finish.
          draw.machine_check = true;
          return draw;
        case StrikeOutcome::Kind::kProgramFault:
          draw.trial.trial_seed = rng.next();
          draw.trial.model = outcome.model;
          draw.trial.policy = outcome.target;
          draw.trial.burst_elements = outcome.burst_elements;
          return draw;
      }
    }
  }
  throw std::runtime_error(
      "beam plan: attempt " + std::to_string(index) + " saw no visible " +
      "strike in " + std::to_string(kMaxRunsPerAttempt) +
      " runs; the flux is too low for the device cross section");
}

fi::AttemptPlan BeamPlan::attempt(std::uint64_t seed,
                                  std::uint64_t index) const {
  const BeamDraw beam = draw(seed, index);
  if (!beam.machine_check) {
    return {.trial = beam.trial, .decided = std::nullopt};
  }
  fi::TrialResult due;
  due.outcome = fi::Outcome::kDue;
  due.due_kind = fi::DueKind::kMachineCheck;
  return {.trial = beam.trial, .decided = due};
}

std::uint64_t BeamPlan::fingerprint() const {
  return std::bit_cast<std::uint64_t>(flux_);
}

BeamResult fold_beam(const fi::CampaignResult& campaign,
                     const BeamPlan& plan, std::uint64_t seed,
                     const analysis::SdcAnalyzer& analyzer) {
  BeamResult result;
  result.workload = campaign.workload;
  for (std::uint64_t index = 0; index < campaign.attempts; ++index) {
    const BeamDraw beam = plan.draw(seed, index);
    result.runs += beam.runs;
    result.strikes += beam.strikes;
    result.absorbed += beam.absorbed;
    if (beam.machine_check) ++result.due_machine_check;
  }
  result.fluence = static_cast<double>(result.runs) * plan.fluence_per_run();
  result.executions = campaign.attempts - result.due_machine_check;
  result.sdc = campaign.overall.sdc;
  result.due_program = campaign.overall.due - result.due_machine_check;
  result.masked_faults = campaign.overall.masked + campaign.not_injected;

  result.sdc_fit = analysis::fit_from_counts(result.sdc, result.fluence);
  result.due_fit =
      analysis::fit_from_counts(result.due_total(), result.fluence);
  result.patterns = analyzer.patterns();
  result.tolerance = analyzer.tolerance();
  result.single_element_fraction = analyzer.single_element_fraction();

  util::log_info() << result.workload << ": beam campaign " << result.runs
                   << " runs, " << result.executions << " executed, "
                   << result.sdc << " SDC, " << result.due_total() << " DUE";
  return result;
}

}  // namespace phifi::radiation
