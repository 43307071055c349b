// Sec. 6 (discussion) — "by reducing the DUE rate caused by faults in Sort
// and Tree, HPC systems can allow lowering the frequency of checkpointing
// techniques." This bench quantifies that: the beam-measured DUE FIT of
// each benchmark is scaled to a Trinity-size machine and fed through the
// Young/Daly model to get the optimal checkpoint interval and the machine
// time lost to checkpoint+rework, for several checkpoint costs. A second
// table shows the leverage of halving / quartering the DUE rate (the
// magnitude the Sec. 7 hardening variants achieve for CLAMR's crashes).
#include "analysis/checkpoint_model.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace phifi;
  util::init_log_from_env();

  constexpr double kBoards = 19000.0;
  const double checkpoint_costs[] = {30.0, 120.0, 600.0};

  util::Table table(
      "Sec. 6 - Young/Daly checkpoint intervals at Trinity scale (19k "
      "boards)");
  table.set_header({"benchmark", "due_fit", "machine MTBF [h]",
                    "opt interval @30s cost", "waste", "@120s", "waste",
                    "@600s", "waste"});

  std::vector<std::pair<std::string, double>> due_fits;
  for (const auto& info : work::all_workloads()) {
    if (!info.beam_tested) continue;
    const radiation::BeamResult result = bench::run_beam(
        info.factory, 0xc4ec + static_cast<std::uint64_t>(info.name[0]),
        /*min_sdc=*/0, bench::beam_min_due());
    due_fits.emplace_back(std::string(info.name), result.due_fit.fit);

    const double mtbf =
        analysis::machine_mtbf_seconds(result.due_fit.fit, kBoards);
    std::vector<std::string> row = {std::string(info.name),
                                    util::fmt(result.due_fit.fit, 1),
                                    util::fmt(mtbf / 3600.0, 1)};
    for (double cost : checkpoint_costs) {
      const analysis::CheckpointPlan plan =
          analysis::optimal_checkpoint(mtbf, cost);
      row.push_back(util::fmt(plan.interval_seconds / 60.0, 1) + " min");
      row.push_back(util::fmt_percent(plan.waste_fraction));
    }
    table.add_row(row);
  }
  bench::print_table(table);

  util::Table leverage(
      "Sec. 6 - Checkpoint leverage of DUE-rate hardening (120 s cost)");
  leverage.set_header({"benchmark", "due_fit x1", "waste", "due_fit x1/2",
                       "waste", "due_fit x1/4", "waste"});
  for (const auto& [name, fit] : due_fits) {
    std::vector<std::string> row = {name};
    for (double scale : {1.0, 0.5, 0.25}) {
      const double mtbf =
          analysis::machine_mtbf_seconds(fit * scale, kBoards);
      const analysis::CheckpointPlan plan =
          analysis::optimal_checkpoint(mtbf, 120.0);
      row.push_back(util::fmt(fit * scale, 1));
      row.push_back(util::fmt_percent(plan.waste_fraction));
    }
    leverage.add_row(row);
  }
  bench::print_table(leverage);
  return 0;
}
