// phifi_merge: fold fabric worker shard journals back into the single
// journal a --jobs 1 run would have written.
//
//   $ phifi_merge <config-file> --out <merged.jnl> [--allow-torn-tail]
//                 <shard.jnl> [<shard.jnl> ...]
//
// The merged journal replays like any other: point the config's
// journal_file at it and run `phifi_run <config> --resume` to rebuild
// tallies, estimator state, and the history record — then gate with
// `phifi_parse --drift` against a --jobs 1 baseline. Exit codes: 0 merged,
// 1 merge refused (gap / fingerprint or golden mismatch / torn shard),
// 2 usage.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/config.hpp"
#include "core/supervisor.hpp"
#include "fabric/merge.hpp"
#include "util/log.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace phifi;
  util::init_log_from_env();

  std::string config_path;
  fabric::MergeOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::cerr << "phifi_merge: --out needs a value\n";
        return 2;
      }
      options.out_path = argv[++i];
    } else if (arg == "--allow-torn-tail") {
      options.allow_torn_tail = true;
    } else if (arg.starts_with("--")) {
      std::cerr << "phifi_merge: unknown option '" << arg << "'\n";
      return 2;
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      options.shards.push_back(arg);
    }
  }
  if (config_path.empty() || options.out_path.empty() ||
      options.shards.empty()) {
    std::cerr << "usage: phifi_merge <config-file> --out <merged.jnl> "
                 "[--allow-torn-tail] <shard.jnl>...\n";
    return 2;
  }

  try {
    std::ifstream config_stream(config_path);
    if (!config_stream) {
      std::cerr << "phifi_merge: cannot open '" << config_path << "'\n";
      return 2;
    }
    const cli::RunnerConfig config = cli::parse_config(config_stream);
    const fi::WorkloadFactory factory = work::find_workload(config.workload);
    if (factory == nullptr) {
      std::cerr << "phifi_merge: unknown workload '" << config.workload
                << "'\n";
      return 2;
    }
    // The fingerprint covers time_windows, which only the instantiated
    // workload knows, and every shard must carry this golden's digest —
    // prepare the golden copy exactly as phifi_run does.
    fi::TrialSupervisor supervisor(factory, config.supervisor_config());
    supervisor.prepare_golden();
    options.golden_digest = supervisor.golden_digest();

    const fabric::MergeSummary summary =
        fabric::merge_shards(config.campaign_config(),
                             supervisor.workload_name(),
                             supervisor.time_windows(), options);
    std::cout << "phifi_merge: " << summary.merged << " records -> '"
              << options.out_path << "' (" << summary.shard_records
              << " read from " << options.shards.size() << " shards, "
              << summary.duplicates << " duplicates, " << summary.overshoot
              << " past the boundary)\n"
              << "  injected " << summary.injected << ": masked "
              << summary.overall.masked << ", sdc " << summary.overall.sdc
              << ", due " << summary.overall.due
              << (summary.stopped_early ? " [stopped early: CI target]"
                                        : "")
              << "\n";
  } catch (const std::exception& error) {
    std::cerr << "phifi_merge: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
