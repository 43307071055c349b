// Test helper: asserts two beam campaign results are identical.
#pragma once

#include <gtest/gtest.h>

#include "radiation/beam.hpp"

namespace phifi::testing {

/// Every figure a beam campaign reports: counts, fluence, both FITs with
/// their bounds, the spatial split, the tolerance curve and the
/// single-element share.
inline void expect_same_beam(const radiation::BeamResult& a,
                             const radiation::BeamResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.fluence, b.fluence);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.absorbed, b.absorbed);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due_machine_check, b.due_machine_check);
  EXPECT_EQ(a.due_program, b.due_program);
  EXPECT_EQ(a.masked_faults, b.masked_faults);
  EXPECT_EQ(a.sdc_fit.fit, b.sdc_fit.fit);
  EXPECT_EQ(a.sdc_fit.fit_lo, b.sdc_fit.fit_lo);
  EXPECT_EQ(a.sdc_fit.fit_hi, b.sdc_fit.fit_hi);
  EXPECT_EQ(a.due_fit.fit, b.due_fit.fit);
  EXPECT_EQ(a.due_fit.fit_lo, b.due_fit.fit_lo);
  EXPECT_EQ(a.due_fit.fit_hi, b.due_fit.fit_hi);
  EXPECT_EQ(a.single_element_fraction, b.single_element_fraction);
  EXPECT_EQ(a.patterns.total(), b.patterns.total());
  for (int p = 0; p < fi::kPatternCount; ++p) {
    const auto pattern = static_cast<fi::ErrorPattern>(p);
    EXPECT_EQ(a.patterns.count(pattern), b.patterns.count(pattern))
        << to_string(pattern);
  }
  EXPECT_EQ(a.tolerance.total_sdc(), b.tolerance.total_sdc());
  for (double t : analysis::ToleranceAnalysis::default_tolerances()) {
    EXPECT_EQ(a.tolerance.remaining_fraction(t),
              b.tolerance.remaining_fraction(t))
        << "tolerance " << t;
  }
}

}  // namespace phifi::testing
