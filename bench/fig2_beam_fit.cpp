// Fig. 2 — Neutron-beam FIT rates for the five beam-tested benchmarks:
// SDC FIT split by spatial error pattern (cubic / square / line / single /
// random) plus DUE FIT, at sea level.
//
// Paper reference points: LUD and HotSpot have the highest SDC FIT (peak
// ~193); CLAMR the lowest SDC FIT; HotSpot the highest DUE FIT; DGEMM and
// LavaMD the lowest DUE FIT; fewer than 10% of corrupted executions have a
// single wrong element; LavaMD is the only benchmark with cubic patterns.
#include "bench/bench_common.hpp"

int main() {
  using namespace phifi;
  util::init_log_from_env();

  util::Table table("Fig. 2 - Beam FIT rates and spatial patterns");
  table.set_header({"benchmark", "sdc_fit", "due_fit", "cubic", "square",
                    "line", "single", "random", "single_elem_sdc%", "runs",
                    "executed"});

  for (const auto& info : work::all_workloads()) {
    if (!info.beam_tested) continue;
    const radiation::BeamResult result = bench::run_beam(
        info.factory, 0xbea2 + static_cast<std::uint64_t>(info.name[0]),
        bench::beam_min_sdc(), bench::beam_min_due());

    auto pattern_fit = [&result](analysis::ErrorPattern pattern) {
      return util::fmt(result.pattern_fit(pattern), 1);
    };
    table.add_row(
        {std::string(info.name),
         util::fmt_interval(result.sdc_fit.fit, result.sdc_fit.fit_lo,
                            result.sdc_fit.fit_hi, 1),
         util::fmt_interval(result.due_fit.fit, result.due_fit.fit_lo,
                            result.due_fit.fit_hi, 1),
         pattern_fit(analysis::ErrorPattern::kCubic),
         pattern_fit(analysis::ErrorPattern::kSquare),
         pattern_fit(analysis::ErrorPattern::kLine),
         pattern_fit(analysis::ErrorPattern::kSingle),
         pattern_fit(analysis::ErrorPattern::kRandom),
         util::fmt_percent(result.single_element_fraction),
         std::to_string(result.runs), std::to_string(result.executions)});
  }
  bench::print_table(table);
  return 0;
}
