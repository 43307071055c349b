#include "telemetry/estimator.hpp"

#include <cmath>

#include "telemetry/metrics.hpp"

namespace phifi::telemetry {

CampaignEstimator::CampaignEstimator(double confidence)
    : confidence_(confidence) {}

void CampaignEstimator::record(EstimatorOutcome outcome,
                               const std::string& model, unsigned window,
                               const std::string& category, bool injected) {
  const auto bump = [outcome](EstimatorCounts& counts) {
    switch (outcome) {
      case EstimatorOutcome::kMasked: ++counts.masked; break;
      case EstimatorOutcome::kSdc: ++counts.sdc; break;
      case EstimatorOutcome::kDue: ++counts.due; break;
    }
  };
  bump(overall_);
  if (injected) {
    bump(cells_[EstimatorCellKey{model, window, category}]);
  }
}

util::Interval CampaignEstimator::sdc_interval() const {
  return util::wilson_interval(overall_.sdc, overall_.total(), confidence_);
}

util::Interval CampaignEstimator::due_interval() const {
  return util::wilson_interval(overall_.due, overall_.total(), confidence_);
}

util::Interval CampaignEstimator::masked_interval() const {
  return util::wilson_interval(overall_.masked, overall_.total(),
                               confidence_);
}

std::uint64_t CampaignEstimator::trials_to_half_width(double eps) const {
  if (eps <= 0.0) return 0;
  const std::uint64_t n = overall_.total();
  if (n > 0 && sdc_interval().half_width() <= eps) return 0;
  // Plan with the Wilson center p̃ = (x + z²/2) / (n + z²): shrunk toward
  // 1/2, never exactly 0 or 1, so the projection is meaningful even before
  // the first SDC is observed.
  const double z = util::normal_quantile_two_sided(confidence_);
  const double shrink =
      (static_cast<double>(overall_.sdc) + z * z / 2.0) /
      (static_cast<double>(n) + z * z);
  const double needed = z * z * shrink * (1.0 - shrink) / (eps * eps);
  const double remaining = needed - static_cast<double>(n);
  if (remaining <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::ceil(remaining));
}

std::vector<CellEstimate> CampaignEstimator::cells() const {
  std::vector<CellEstimate> out;
  out.reserve(cells_.size());
  for (const auto& [key, counts] : cells_) {
    CellEstimate estimate;
    estimate.key = key;
    estimate.counts = counts;
    estimate.sdc =
        util::wilson_interval(counts.sdc, counts.total(), confidence_);
    estimate.due =
        util::wilson_interval(counts.due, counts.total(), confidence_);
    out.push_back(std::move(estimate));
  }
  return out;
}

void CampaignEstimator::publish(MetricsRegistry& metrics) const {
  const util::Interval sdc = sdc_interval();
  const util::Interval due = due_interval();
  metrics.gauge("campaign.est.trials")
      .set(static_cast<double>(overall_.total()));
  metrics.gauge("campaign.est.sdc_rate").set(sdc.point);
  metrics.gauge("campaign.est.sdc_ci_lo").set(sdc.lo);
  metrics.gauge("campaign.est.sdc_ci_hi").set(sdc.hi);
  metrics.gauge("campaign.est.due_rate").set(due.point);
  metrics.gauge("campaign.est.due_ci_lo").set(due.lo);
  metrics.gauge("campaign.est.due_ci_hi").set(due.hi);
  for (const CellEstimate& cell : cells()) {
    const std::string prefix = "campaign.est.cell." + cell.key.model + ".w" +
                               std::to_string(cell.key.window) + "." +
                               cell.key.category + ".";
    metrics.gauge(prefix + "trials")
        .set(static_cast<double>(cell.counts.total()));
    metrics.gauge(prefix + "sdc_rate").set(cell.sdc.point);
    metrics.gauge(prefix + "sdc_ci_lo").set(cell.sdc.lo);
    metrics.gauge(prefix + "sdc_ci_hi").set(cell.sdc.hi);
    metrics.gauge(prefix + "due_rate").set(cell.due.point);
  }
}

}  // namespace phifi::telemetry
