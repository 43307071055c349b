// Neutron-beam campaign (Sec. 4) as a plan for the one campaign executor.
//
// Reproduces the LANSCE experimental loop: a benchmark runs back-to-back
// under an accelerated neutron flux; the host diffs each execution's output
// against a golden copy and logs SDCs and DUEs; FIT rates come from the
// accumulated fluence scaled to the natural sea-level flux.
//
// Strikes arrive as a Poisson process over the device's strike cross
// section. Executions with no strike that reaches program state are counted
// analytically (they contribute fluence, not errors), so the simulator only
// pays for the executions that matter — the same importance-sampling
// argument the paper uses in reverse when it tunes the beam so that fewer
// than 1e-4 executions see an error. One campaign attempt is one visible
// execution: a machine check is a DUE decided without a child, a program
// fault a trial forked like any injection.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/fit.hpp"
#include "analysis/spatial.hpp"
#include "analysis/tolerance.hpp"
#include "core/campaign.hpp"
#include "radiation/sensitivity.hpp"

namespace phifi::radiation {

/// Accelerated flux at the device, n/(cm^2 s). LANSCE runs 1e5..2.5e6.
inline constexpr double kDefaultFlux = 2.0e6;
/// Execution budget; campaigns normally stop at their error targets first.
inline constexpr std::uint64_t kDefaultMaxExecutions = 20000;
/// Modeled wall-clock time of one benchmark execution on the real device.
inline constexpr double kRunSeconds = 1.0;
/// Runs without a visible strike after which a draw gives up (flux too low).
inline constexpr std::uint64_t kMaxRunsPerAttempt = 50'000'000;

/// One attempt's beam: the clean runs before it and the run whose first
/// visible strike decided it.
struct BeamDraw {
  std::uint64_t runs = 0;      ///< executions under beam, visible one included
  std::uint64_t strikes = 0;   ///< strikes over those runs
  std::uint64_t absorbed = 0;  ///< of those, corrected or masked
  bool machine_check = false;  ///< MCA-detected: a DUE with no execution
  fi::TrialConfig trial;       ///< the program fault, when !machine_check
};

class BeamPlan final : public fi::CampaignPlan {
 public:
  /// The Knights Corner 3120A (DeviceSensitivity::knc_3120a) under `flux`.
  explicit BeamPlan(double flux = kDefaultFlux);

  /// Attempt `index` of the campaign seeded `seed`, from its own stream
  /// util::Rng(trial_seed_for(seed, index)): per run a Poisson strike
  /// count, then each strike's fate until the first machine check or
  /// program fault. Throws std::runtime_error after kMaxRunsPerAttempt.
  [[nodiscard]] BeamDraw draw(std::uint64_t seed, std::uint64_t index) const;

  [[nodiscard]] fi::AttemptPlan attempt(std::uint64_t seed,
                                        std::uint64_t index) const override;
  /// The flux: a resumed campaign must see the same beam.
  [[nodiscard]] std::uint64_t fingerprint() const override;

  [[nodiscard]] double fluence_per_run() const { return flux_ * kRunSeconds; }

 private:
  DeviceSensitivity sensitivity_;
  double flux_;
};

struct BeamResult {
  std::string workload;
  std::uint64_t runs = 0;        ///< total executions under beam
  std::uint64_t executions = 0;  ///< runs actually executed (strike reached
                                 ///< program state)
  double fluence = 0.0;          ///< n/cm^2
  std::uint64_t strikes = 0;
  std::uint64_t absorbed = 0;

  std::uint64_t sdc = 0;
  std::uint64_t due_machine_check = 0;  ///< MCA-detected (no execution)
  std::uint64_t due_program = 0;        ///< crash/hang of the program
  std::uint64_t masked_faults = 0;      ///< program faults with no effect

  analysis::FitEstimate sdc_fit;
  analysis::FitEstimate due_fit;
  analysis::PatternTally patterns;        ///< spatial split of the SDCs
  analysis::ToleranceAnalysis tolerance;  ///< Fig. 3 inputs
  double single_element_fraction = 0.0;

  [[nodiscard]] std::uint64_t due_total() const {
    return due_machine_check + due_program;
  }

  /// SDC FIT attributed to one spatial pattern (Fig. 2's stacked bars).
  [[nodiscard]] double pattern_fit(fi::ErrorPattern pattern) const {
    return sdc_fit.fit * patterns.fraction(pattern);
  }
};

/// Folds a beam campaign's committed attempts into the Sec. 4 result: runs,
/// fluence, strikes and machine checks by asking `plan` again for attempts
/// [0, campaign.attempts) of seed `seed`; SDCs and program DUEs from the
/// tallies (NotInjected attempts count as masked executions); patterns, the
/// tolerance curve and the single-element share from the SDC summaries in
/// campaign.trials. Replayed journal records carry the same summaries, so a
/// resumed or merged campaign folds exactly what a live one does.
BeamResult fold_beam(const fi::CampaignResult& campaign,
                     const BeamPlan& plan, std::uint64_t seed);

}  // namespace phifi::radiation
