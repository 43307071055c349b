// Sec. 4.2 (text) — Machine-scale extrapolation of the measured FIT rates:
// for a Trinity-size machine (19,000 Xeon Phi boards at sea level) the
// paper expects an LUD SDC or a HotSpot DUE roughly every 11-12 days; a
// hypothetical exascale machine with 10x the boards sees almost daily
// events.
#include "analysis/fit.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace phifi;
  util::init_log_from_env();

  util::Table table(
      "Sec. 4.2 - Machine-scale MTBF extrapolation (days between events)");
  table.set_header({"benchmark", "sdc_fit", "due_fit", "board MTBF [yr]",
                    "Trinity 19k SDC [d]", "Trinity 19k DUE [d]",
                    "exascale 190k SDC [d]", "exascale 190k DUE [d]"});

  for (const auto& info : work::all_workloads()) {
    if (!info.beam_tested) continue;
    const radiation::BeamResult result = bench::run_beam(
        info.factory, 0x5ec4 + static_cast<std::uint64_t>(info.name[0]),
        bench::beam_min_sdc(), bench::beam_min_due());

    const double total_fit = result.sdc_fit.fit + result.due_fit.fit;
    table.add_row(
        {std::string(info.name), util::fmt(result.sdc_fit.fit, 1),
         util::fmt(result.due_fit.fit, 1),
         util::fmt(total_fit > 0 ? 1e9 / total_fit / 24.0 / 365.0 : 0.0, 1),
         util::fmt(analysis::machine_mtbf_days(result.sdc_fit.fit, 19000), 1),
         util::fmt(analysis::machine_mtbf_days(result.due_fit.fit, 19000), 1),
         util::fmt(analysis::machine_mtbf_days(result.sdc_fit.fit, 190000),
                   2),
         util::fmt(analysis::machine_mtbf_days(result.due_fit.fit, 190000),
                   2)});
  }
  bench::print_table(table);
  return 0;
}
