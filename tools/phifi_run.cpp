// phifi_run: the artifact's experiment workflow as a command-line tool.
//
//   $ phifi_run <config-file> [repetitions]
//   $ phifi_run <config-file> --resume     # continue a journaled campaign
//   $ phifi_run --template                 # print a config template
//
// Each repetition re-runs the configured campaign with a derived seed, as
// the CAROL-FI scripts did when the paper accumulated its >90k injections
// across batches.
//
// SIGINT/SIGTERM request a graceful stop: the in-flight trial finishes,
// the journal is flushed, and the resume command is printed. A second
// SIGINT falls through to the default handler (immediate exit) — the
// journal survives that too; only the in-flight trial is lost.
#include <csignal>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "cli/runner.hpp"
#include "util/log.hpp"

namespace {

std::atomic<bool> g_stop{false};

void request_stop(int) {
  g_stop.store(true, std::memory_order_relaxed);
  // Restore default disposition so a second signal exits immediately.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phifi;
  util::init_log_from_env();

  if (argc >= 2 && std::string(argv[1]) == "--template") {
    std::cout << cli::format_config(cli::RunnerConfig{});
    return 0;
  }
  if (argc < 2) {
    std::cerr << "usage: phifi_run <config-file> [repetitions] [--resume]\n"
              << "                 [--jobs <n>] [--trace-out <file>] "
                 "[--metrics-out <file>]\n"
              << "                 [--profile <file>]\n"
              << "                 [--metrics-format json|openmetrics]\n"
              << "                 [--progress <seconds>] "
                 "[--stop-ci-width <eps>]\n"
              << "                 [--history <file>]\n"
              << "                 [--coordinator <addr> "
                 "[--lease-ledger <file>]\n"
              << "                  [--lease-size <n>] "
                 "[--lease-timeout <sec>]]\n"
              << "                 [--connect <addr> "
                 "--shard-journal <file>]\n"
              << "       phifi_run --template\n"
              << "  --stop-ci-width  stop once the SDC-proportion 95% CI\n"
              << "                   half-width is <= eps (e.g. 0.005)\n"
              << "  --profile        write one NDJSON latency-anatomy\n"
                 "                   record per committed trial (read with\n"
                 "                   phifi_parse --profile)\n"
              << "  --history        append a campaign summary record to\n"
              << "                   this NDJSON ledger (phifi_parse "
                 "--drift)\n"
              << "  --coordinator    run the fabric coordinator on this\n"
              << "                   address (unix:/path or tcp:host:port)\n"
              << "  --connect        run a fabric worker against that\n"
              << "                   coordinator (needs --shard-journal);\n"
              << "                   merge shards with phifi_merge\n"
              << "  --serve-metrics  coordinator: serve /metrics,\n"
                 "                   /campaign.json, /healthz on this\n"
                 "                   address while the campaign runs\n"
                 "                   (tcp:host:port or unix:/path)\n";
    return 2;
  }

  int repetitions = 1;
  bool resume = false;
  int jobs = 0;  // 0: leave the config file's value
  std::string trace_out;
  std::string profile_out;
  std::string metrics_out;
  std::string metrics_format;
  std::string history_out;
  std::string coordinator_addr;
  std::string connect_addr;
  std::string shard_journal;
  std::string lease_ledger;
  std::string serve_metrics;
  long lease_size = 0;            // 0: leave the config file's value
  double lease_timeout = -1.0;    // <0: leave the config file's value
  double progress_seconds = -1.0;  // <0: leave the config file's value
  double stop_ci_width = -1.0;     // <0: leave the config file's value
  const auto flag_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "phifi_run: " << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--jobs") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      jobs = std::atoi(value);
      if (jobs < 1) {
        std::cerr << "phifi_run: bad --jobs count '" << value << "'\n";
        return 2;
      }
    } else if (arg == "--trace-out") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      trace_out = value;
    } else if (arg == "--profile") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      profile_out = value;
    } else if (arg == "--metrics-out") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      metrics_out = value;
    } else if (arg == "--metrics-format") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      metrics_format = value;
      if (metrics_format != "json" && metrics_format != "openmetrics") {
        std::cerr << "phifi_run: --metrics-format must be 'json' or "
                     "'openmetrics'\n";
        return 2;
      }
    } else if (arg == "--history") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      history_out = value;
    } else if (arg == "--coordinator") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      coordinator_addr = value;
    } else if (arg == "--connect") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      connect_addr = value;
    } else if (arg == "--shard-journal") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      shard_journal = value;
    } else if (arg == "--lease-ledger") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      lease_ledger = value;
    } else if (arg == "--serve-metrics") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      serve_metrics = value;
    } else if (arg == "--lease-size") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      lease_size = std::atol(value);
      if (lease_size < 1) {
        std::cerr << "phifi_run: bad --lease-size '" << value << "'\n";
        return 2;
      }
    } else if (arg == "--lease-timeout") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      lease_timeout = std::atof(value);
      if (lease_timeout <= 0.0) {
        std::cerr << "phifi_run: bad --lease-timeout '" << value << "'\n";
        return 2;
      }
    } else if (arg == "--stop-ci-width") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      stop_ci_width = std::atof(value);
      if (stop_ci_width <= 0.0 || stop_ci_width >= 0.5) {
        std::cerr << "phifi_run: bad --stop-ci-width '" << value
                  << "' (need a proportion in (0, 0.5))\n";
        return 2;
      }
    } else if (arg == "--progress") {
      const char* value = flag_value(i);
      if (value == nullptr) return 2;
      progress_seconds = std::atof(value);
      if (progress_seconds <= 0.0) {
        std::cerr << "phifi_run: bad --progress interval '" << value << "'\n";
        return 2;
      }
    } else if (arg.starts_with("--")) {
      std::cerr << "phifi_run: unknown option '" << arg << "'\n";
      return 2;
    } else {
      repetitions = std::atoi(argv[i]);
      if (repetitions < 1) {
        std::cerr << "phifi_run: bad repetition count '" << arg << "'\n";
        return 2;
      }
    }
  }

  std::ifstream config_stream(argv[1]);
  if (!config_stream) {
    std::cerr << "phifi_run: cannot open '" << argv[1] << "'\n";
    return 2;
  }

  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);

  try {
    cli::RunnerConfig config = cli::parse_config(config_stream);
    if (resume) config.resume = true;
    if (jobs > 0) config.jobs = static_cast<unsigned>(jobs);
    if (!trace_out.empty()) config.trace_file = trace_out;
    if (!profile_out.empty()) config.profile_file = profile_out;
    if (!metrics_out.empty()) config.metrics_file = metrics_out;
    if (metrics_format == "json") {
      config.metrics_format = cli::MetricsFormat::kJson;
    } else if (metrics_format == "openmetrics") {
      config.metrics_format = cli::MetricsFormat::kOpenMetrics;
    }
    if (!history_out.empty()) config.history_file = history_out;
    if (stop_ci_width > 0.0) config.stop_ci_width = stop_ci_width;
    if (progress_seconds > 0.0) config.progress_seconds = progress_seconds;
    if (!coordinator_addr.empty()) config.fabric_listen = coordinator_addr;
    if (!connect_addr.empty()) config.fabric_connect = connect_addr;
    if (!shard_journal.empty()) config.fabric_shard = shard_journal;
    if (!lease_ledger.empty()) config.fabric_ledger = lease_ledger;
    if (lease_size > 0) {
      config.fabric_lease_size = static_cast<std::uint64_t>(lease_size);
    }
    if (lease_timeout > 0.0) {
      config.fabric_lease_timeout_seconds = lease_timeout;
    }
    if (!serve_metrics.empty()) config.fabric_serve_metrics = serve_metrics;
    config.stop_flag = &g_stop;
    if (config.resume && config.journal_file.empty()) {
      std::cerr << "phifi_run: --resume requires 'journal_file' in the "
                   "config\n";
      return 2;
    }
    const bool fabric_role =
        !config.fabric_listen.empty() || !config.fabric_connect.empty();
    if (!config.fabric_serve_metrics.empty() &&
        config.fabric_listen.empty()) {
      std::cerr << "phifi_run: --serve-metrics requires --coordinator\n";
      return 2;
    }
    if (fabric_role) {
      if (!config.fabric_listen.empty() && !config.fabric_connect.empty()) {
        std::cerr << "phifi_run: --coordinator and --connect are mutually "
                     "exclusive\n";
        return 2;
      }
      if (!config.fabric_connect.empty() && config.fabric_shard.empty()) {
        std::cerr << "phifi_run: --connect requires --shard-journal\n";
        return 2;
      }
      if (repetitions > 1) {
        std::cerr << "phifi_run: repetitions and fabric roles do not mix "
                     "(run one campaign per fabric)\n";
        return 2;
      }
    }
    const std::string base_journal = config.journal_file;
    const std::string base_trace = config.trace_file;
    const std::string base_profile = config.profile_file;
    const std::string base_metrics = config.metrics_file;
    for (int rep = 0; rep < repetitions; ++rep) {
      if (repetitions > 1) {
        config.seed = config.seed + 0x9e3779b9ULL * (rep + 1);
        if (!base_journal.empty()) {
          config.journal_file = base_journal + "." + std::to_string(rep);
        }
        if (!base_trace.empty()) {
          config.trace_file = base_trace + "." + std::to_string(rep);
        }
        if (!base_profile.empty()) {
          config.profile_file = base_profile + "." + std::to_string(rep);
        }
        if (!base_metrics.empty()) {
          config.metrics_file = base_metrics + "." + std::to_string(rep);
        }
        std::cout << "--- repetition " << (rep + 1) << "/" << repetitions
                  << " (seed " << config.seed << ") ---\n";
      }
      const cli::RunSummary summary = cli::run_from_config(config, std::cout);
      std::cout << "\n";
      if (summary.interrupted || summary.aborted) {
        if (!config.journal_file.empty() &&
            config.mode == cli::RunMode::kInject) {
          std::cout << (summary.interrupted ? "interrupted" : "aborted")
                    << "; completed trials are journaled. Resume with:\n"
                    << "  " << argv[0] << " " << argv[1] << " --resume\n";
        }
        return summary.interrupted ? 130 : 1;
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "phifi_run: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
