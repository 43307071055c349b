// Fig. 3 — SDC FIT reduction as a function of the tolerated relative error
// (0.1% .. 15%), from the same beam-campaign machinery as Fig. 2.
//
// Paper reference points: every benchmark loses at least 25% of its SDC FIT
// already at 0.1% tolerance; HotSpot collapses to ~5% of its original FIT
// at 2% tolerance (85% reduction at 0.5%); CLAMR and DGEMM show the
// flattest curves; the curves saturate after the initial drop.
#include "bench/bench_common.hpp"

int main() {
  using namespace phifi;
  util::init_log_from_env();

  const std::vector<double> tolerances =
      analysis::ToleranceAnalysis::default_tolerances();

  util::Table table(
      "Fig. 3 - SDC FIT reduction [%] vs tolerated relative error");
  std::vector<std::string> header = {"benchmark"};
  for (double t : tolerances) header.push_back(util::fmt(t * 100, 1) + "%");
  table.set_header(header);

  for (const auto& info : work::all_workloads()) {
    if (!info.beam_tested) continue;
    // This figure only needs SDCs.
    const radiation::BeamResult result = bench::run_beam(
        info.factory, 0xf163 + static_cast<std::uint64_t>(info.name[0]),
        bench::beam_min_sdc(), /*min_due=*/0);

    std::vector<std::string> row = {std::string(info.name)};
    for (double t : tolerances) {
      row.push_back(util::fmt(result.tolerance.reduction_percent(t), 1));
    }
    table.add_row(row);
  }
  bench::print_table(table);
  return 0;
}
