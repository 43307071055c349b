// Beam experiment: a LANSCE-style accelerated-radiation campaign (Sec. 4)
// against one benchmark.
//
//   $ ./examples/beam_experiment [workload] [min_sdc]
//
// Simulates back-to-back executions under an accelerated neutron flux on
// the modeled Xeon Phi 3120A, collects SDCs/DUEs until the statistics
// target is met, and reports: FIT rates with 95% confidence intervals, the
// device MTBF, the spatial-pattern split of the SDCs, and the FIT-vs-
// tolerance curve for imprecise computing.
#include <cstdlib>
#include <iostream>
#include <memory>

#include "radiation/beam.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace phifi;
  const std::string name = argc > 1 ? argv[1] : "DGEMM";
  const std::uint64_t min_sdc = argc > 2 ? std::atoll(argv[2]) : 100;

  const fi::WorkloadFactory factory = work::find_workload(name);
  if (factory == nullptr) {
    std::cerr << "unknown workload '" << name << "'\n";
    return 1;
  }

  fi::TrialSupervisor supervisor(factory);
  supervisor.prepare_golden();

  // Each campaign attempt is one beam execution a strike made visible; the
  // campaign stops once it holds both error targets. The plan models the
  // Knights Corner 3120A.
  const auto plan = std::make_shared<const radiation::BeamPlan>();
  fi::CampaignConfig config;
  config.seed = 0xbea3;
  config.trials = radiation::kDefaultMaxExecutions;
  config.min_sdc = min_sdc;
  config.min_due = min_sdc / 2;
  config.plan = plan;
  fi::Campaign campaign(supervisor, config);
  const radiation::BeamResult result =
      radiation::fold_beam(campaign.run(), *plan, config.seed);

  std::cout << "Device under beam: "
            << phi::DeviceSpec::knights_corner_3120a().model << "\n"
            << "Benchmark: " << name << "\n"
            << "Executions simulated: " << result.runs << " ("
            << result.executions << " with a fault reaching the program)\n"
            << "Accumulated fluence: " << result.fluence << " n/cm^2\n"
            << "Strikes: " << result.strikes << " (" << result.absorbed
            << " absorbed by ECC / electrical masking)\n\n";

  util::Table fit("FIT at sea level (13 n/cm^2/h), 95% CI");
  fit.set_header({"metric", "value"});
  fit.add_row({"SDC FIT",
               util::fmt_interval(result.sdc_fit.fit, result.sdc_fit.fit_lo,
                                  result.sdc_fit.fit_hi, 1)});
  fit.add_row({"DUE FIT",
               util::fmt_interval(result.due_fit.fit, result.due_fit.fit_lo,
                                  result.due_fit.fit_hi, 1)});
  fit.add_row({"DUE from machine checks",
               std::to_string(result.due_machine_check)});
  fit.add_row({"DUE from program crashes/hangs",
               std::to_string(result.due_program)});
  fit.add_row({"SDC MTBF per board [h]",
               util::fmt(result.sdc_fit.mtbf_hours(), 0)});
  fit.print_text(std::cout);
  std::cout << "\n";

  util::Table patterns("Spatial distribution of the SDCs");
  patterns.set_header({"pattern", "share", "FIT contribution"});
  for (int p = 1; p < fi::kPatternCount; ++p) {
    const auto pattern = static_cast<fi::ErrorPattern>(p);
    patterns.add_row({std::string(fi::to_string(pattern)),
                      util::fmt_percent(result.patterns.fraction(pattern)),
                      util::fmt(result.pattern_fit(pattern), 1)});
  }
  patterns.add_row({"single-element executions",
                    util::fmt_percent(result.single_element_fraction), "-"});
  patterns.print_text(std::cout);
  std::cout << "\n";

  util::Table tolerance("Imprecise computing: SDC FIT vs tolerated error");
  tolerance.set_header({"tolerance", "remaining SDC FIT", "reduction"});
  for (double t : analysis::ToleranceAnalysis::default_tolerances()) {
    const double remaining =
        result.sdc_fit.fit * result.tolerance.remaining_fraction(t);
    tolerance.add_row(
        {util::fmt(t * 100, 1) + "%", util::fmt(remaining, 1),
         util::fmt(result.tolerance.reduction_percent(t), 1) + "%"});
  }
  tolerance.print_text(std::cout);
  return 0;
}
