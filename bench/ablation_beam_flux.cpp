// Ablation — accelerated-flux invariance (Sec. 4.1 methodology check).
//
// LANSCE runs between 1e5 and 2.5e6 n/(cm^2 s), and the whole FIT
// methodology rests on the error rate scaling linearly with flux so that
// the cross section (errors / fluence) is flux-independent. The paper also
// tunes the beam so that fewer than 1e-4 executions see an error, keeping
// multi-fault runs negligible. This bench sweeps the simulated flux across
// the LANSCE range and reports (a) the measured SDC FIT with its CI — the
// estimates must agree — and (b) the fraction of executions whose strikes
// produced more than one program-visible fault, which must stay tiny at
// the paper's operating point.
#include <cmath>

#include "bench/bench_common.hpp"

int main() {
  using namespace phifi;
  util::init_log_from_env();

  util::Table table("Ablation: SDC FIT vs accelerated flux (DGEMM)");
  table.set_header({"flux [n/cm^2 s]", "runs", "strikes/run", "sdc_fit",
                    "due_fit", "multi-fault runs"});

  for (const double flux : {1.0e5, 5.0e5, 1.0e6, 2.5e6}) {
    const radiation::BeamResult result = bench::run_beam(
        work::find_workload("DGEMM"), 0xf1fd, bench::beam_min_sdc() / 2,
        bench::beam_min_due() / 2, flux);

    const double strikes_per_run =
        result.runs == 0 ? 0.0
                         : static_cast<double>(result.strikes) / result.runs;
    // Multi-fault executions: expected from Poisson statistics of the
    // *program-visible* fault rate.
    const double fault_rate =
        result.runs == 0
            ? 0.0
            : static_cast<double>(result.executions +
                                  result.due_machine_check) /
                  result.runs;
    const double multi_fault =
        1.0 - std::exp(-fault_rate) * (1.0 + fault_rate);
    table.add_row({util::fmt(flux, 0), std::to_string(result.runs),
                   util::fmt(strikes_per_run, 2),
                   util::fmt_interval(result.sdc_fit.fit,
                                      result.sdc_fit.fit_lo,
                                      result.sdc_fit.fit_hi, 1),
                   util::fmt(result.due_fit.fit, 1),
                   util::fmt_percent(multi_fault, 3)});
  }
  bench::print_table(table);
  std::cout << "FIT estimates at different fluxes must agree within their "
               "confidence intervals;\nthe multi-fault fraction bounds the "
               "probability that one execution absorbed two\nvisible "
               "faults (the paper keeps its real-beam equivalent below "
               "1e-4).\n";
  return 0;
}
