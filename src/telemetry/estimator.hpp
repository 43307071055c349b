// Streaming campaign statistics: live outcome proportions with Wilson
// score intervals, overall and per (fault model × time window × code
// portion) cell, plus a projection of how many more trials are needed to
// reach a target precision.
//
// The paper's headline tables rest on >90,000 injections; the operator of
// such a campaign wants to know *now* how tight the estimates are and when
// the run can stop. The estimator is fed from Campaign::run's commit point
// — the same deterministic, attempt-ordered stream the journal
// records — so its state is bit-identical for any --jobs value and across
// resumes. Like the rest of the telemetry layer it knows nothing about
// core enums: the campaign hands it strings and indices. Single-writer by
// construction (only the commit point feeds it), so no atomics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "util/statistics.hpp"

namespace phifi::telemetry {

class MetricsRegistry;

/// Outcome class of one committed, injected trial as the estimator sees
/// it. NotInjected attempts never reach the estimator: they do not change
/// any proportion.
enum class EstimatorOutcome { kMasked, kSdc, kDue };

/// One estimation cell: fault model × execution-time window × code-portion
/// category (the paper's Fig. 5 / Fig. 6 / Sec. 6 axes respectively).
struct EstimatorCellKey {
  std::string model;
  unsigned window = 0;
  std::string category;

  [[nodiscard]] friend bool operator<(const EstimatorCellKey& a,
                                      const EstimatorCellKey& b) {
    return std::tie(a.model, a.window, a.category) <
           std::tie(b.model, b.window, b.category);
  }
  [[nodiscard]] friend bool operator==(const EstimatorCellKey& a,
                                       const EstimatorCellKey& b) {
    return std::tie(a.model, a.window, a.category) ==
           std::tie(b.model, b.window, b.category);
  }
};

struct EstimatorCounts {
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;

  [[nodiscard]] std::uint64_t total() const { return masked + sdc + due; }
};

/// Point-in-time view of one cell with its Wilson intervals.
struct CellEstimate {
  EstimatorCellKey key;
  EstimatorCounts counts;
  util::Interval sdc;  ///< Wilson interval on the cell's SDC proportion
  util::Interval due;  ///< Wilson interval on the cell's DUE proportion
};

class CampaignEstimator {
 public:
  /// `confidence` is the two-sided level of every interval (0.95 matches
  /// the paper's reporting).
  explicit CampaignEstimator(double confidence = 0.95);

  /// Folds one committed trial in. Must be called in attempt-commit order
  /// (the campaign's deterministic serialization point); cells are only
  /// accounted when the fault actually landed (`injected`), mirroring
  /// fi::accumulate_trial's by_category gating.
  void record(EstimatorOutcome outcome, const std::string& model,
              unsigned window, const std::string& category, bool injected);

  [[nodiscard]] std::uint64_t total() const { return overall_.total(); }
  [[nodiscard]] const EstimatorCounts& counts() const { return overall_; }
  [[nodiscard]] double confidence() const { return confidence_; }

  /// Wilson interval on the overall SDC / DUE / Masked proportion.
  [[nodiscard]] util::Interval sdc_interval() const;
  [[nodiscard]] util::Interval due_interval() const;
  [[nodiscard]] util::Interval masked_interval() const;

  /// Additional trials projected to shrink the SDC-proportion CI
  /// half-width to `eps`, from the planning formula n = z²·p̃(1−p̃)/eps²
  /// with p̃ the Wilson center (never exactly 0 or 1, so the projection
  /// stays finite before the first SDC). Returns 0 once the current
  /// half-width is already <= eps.
  [[nodiscard]] std::uint64_t trials_to_half_width(double eps) const;

  /// All populated cells in deterministic (model, window, category) order.
  [[nodiscard]] std::vector<CellEstimate> cells() const;

  /// Exports the current estimates as gauges:
  ///   campaign.est.sdc_rate / .sdc_ci_lo / .sdc_ci_hi  (overall, same
  ///   for due) and campaign.est.cell.<model>.w<window>.<category>.
  ///   {sdc_rate,sdc_ci_lo,sdc_ci_hi,trials}. Rates are proportions in
  ///   [0,1]; the OpenMetrics renderer exposes them verbatim.
  void publish(MetricsRegistry& metrics) const;

 private:
  double confidence_;
  EstimatorCounts overall_;
  std::map<EstimatorCellKey, EstimatorCounts> cells_;
};

}  // namespace phifi::telemetry
