#include "report/report.hpp"

#include <gtest/gtest.h>

namespace phifi::report {
namespace {

fi::CampaignResult make_campaign() {
  fi::CampaignResult result;
  result.workload = "DGEMM";
  result.time_windows = 5;
  result.by_window.resize(5);
  for (int i = 0; i < 60; ++i) result.overall.add(fi::Outcome::kMasked);
  for (int i = 0; i < 25; ++i) result.overall.add(fi::Outcome::kSdc);
  for (int i = 0; i < 15; ++i) result.overall.add(fi::Outcome::kDue);
  auto& matrix = result.by_category["matrix"];
  matrix.masked = 30;
  matrix.sdc = 20;
  matrix.due = 5;
  auto& control = result.by_category["control"];
  control.masked = 30;
  control.sdc = 5;
  control.due = 10;
  result.by_model[0].masked = 60;
  result.by_model[0].sdc = 25;
  result.by_model[0].due = 15;
  result.by_window[2].sdc = 25;
  result.by_window[2].masked = 40;
  return result;
}

TEST(Report, CampaignOnlySectionsPresent) {
  const fi::CampaignResult campaign = make_campaign();
  ReportInputs inputs;
  inputs.campaign = &campaign;
  inputs.algebraic = true;
  const std::string markdown = render_report(inputs);

  EXPECT_NE(markdown.find("# Reliability report: DGEMM"), std::string::npos);
  EXPECT_NE(markdown.find("## Outcomes"), std::string::npos);
  EXPECT_NE(markdown.find("## Execution-time windows"), std::string::npos);
  EXPECT_NE(markdown.find("## Code-portion criticality"), std::string::npos);
  EXPECT_NE(markdown.find("| matrix |"), std::string::npos);
  EXPECT_NE(markdown.find("ABFT"), std::string::npos);
  // No beam section without beam data.
  EXPECT_EQ(markdown.find("## Beam experiment"), std::string::npos);
}

TEST(Report, BeamSectionIncludesFitAndCheckpointAdvice) {
  const fi::CampaignResult campaign = make_campaign();
  radiation::BeamResult beam;
  beam.workload = "DGEMM";
  beam.runs = 1000;
  beam.fluence = 1e10;
  beam.sdc = 100;
  beam.sdc_fit = analysis::fit_from_counts(100, 1e10);
  beam.due_fit = analysis::fit_from_counts(30, 1e10);
  beam.patterns.add(fi::ErrorPattern::kLine);
  beam.patterns.add(fi::ErrorPattern::kSingle);
  beam.tolerance.add_sdc(0.001);
  beam.tolerance.add_sdc(1.0);

  ReportInputs inputs;
  inputs.campaign = &campaign;
  inputs.beam = &beam;
  const std::string markdown = render_report(inputs);

  EXPECT_NE(markdown.find("## Beam experiment"), std::string::npos);
  EXPECT_NE(markdown.find("SDC FIT: **130.0**"), std::string::npos);
  EXPECT_NE(markdown.find("Young/Daly-optimal interval"), std::string::npos);
  EXPECT_NE(markdown.find("Imprecise-computing leverage"), std::string::npos);
  // 1 of 2 SDCs tolerated at 0.5%: 50% reduction.
  EXPECT_NE(markdown.find("removes 50.0% /"), std::string::npos);
}

}  // namespace
}  // namespace phifi::report
