#include "cli/config.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>

namespace phifi::cli {

namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("config line " + std::to_string(line) + ": " +
                           message);
}

double parse_double(int line, const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + value + "'");
  }
}

std::uint64_t parse_u64(int line, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used, 0);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(line, "expected an unsigned integer, got '" + value + "'");
  }
}

fi::SelectionPolicy parse_policy(int line, const std::string& value) {
  if (value == "carol-fi") return fi::SelectionPolicy::kCarolFi;
  if (value == "bytes-weighted") return fi::SelectionPolicy::kBytesWeighted;
  if (value == "global-bytes") {
    return fi::SelectionPolicy::kGlobalBytesWeighted;
  }
  if (value == "worker-frame") return fi::SelectionPolicy::kWorkerFrameOnly;
  fail(line, "unknown policy '" + value + "'");
}

std::vector<fi::FaultModel> parse_models(int line, const std::string& value) {
  std::vector<fi::FaultModel> models;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, '+')) {
    token = trim(token);
    bool found = false;
    for (fi::FaultModel model : fi::kAllFaultModels) {
      if (to_string(model) == token) {
        models.push_back(model);
        found = true;
      }
    }
    if (!found) fail(line, "unknown fault model '" + token + "'");
  }
  if (models.empty()) fail(line, "empty fault model list");
  return models;
}

}  // namespace

fi::CampaignConfig RunnerConfig::campaign_config() const {
  fi::CampaignConfig config;
  config.trials = trials;
  config.seed = seed;
  config.policy = policy;
  config.models = models;
  config.earliest_fraction = earliest_fraction;
  config.latest_fraction = latest_fraction;
  config.jobs = jobs;
  config.journal_path = journal_file;
  config.resume = resume;
  config.journal_fsync = journal_fsync;
  config.journal_batch = journal_batch;
  config.stop_flag = stop_flag;
  config.max_consecutive_failures = max_consecutive_failures;
  config.stop_ci_width = stop_ci_width;
  if (mode == RunMode::kBeam) {
    config.trials = max_executions;
    config.min_sdc = min_sdc;
    config.min_due = min_due;
  }
  return config;
}

std::string refusal(const RunnerConfig& config) {
  if (config.mode != RunMode::kBeam) return "";
  const char* key = config.resume ? "resume (--resume)"
                    : !config.fabric_listen.empty()
                        ? "fabric_listen (--coordinator)"
                    : !config.fabric_connect.empty()
                        ? "fabric_connect (--connect)"
                        : nullptr;
  if (key == nullptr) return "";
  return std::string("mode = beam does not support ") + key +
         ": the SDC pattern split and tolerance curve need each SDC's "
         "output bytes, which journal records and fabric lease reports do "
         "not carry";
}

RunnerConfig parse_config(std::istream& is) {
  RunnerConfig config;
  fi::SupervisorConfig& supervisor = config.supervisor;
  std::string raw;
  int line_number = 0;
  while (std::getline(is, raw)) {
    ++line_number;
    const auto comment = raw.find('#');
    if (comment != std::string::npos) raw.erase(comment);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(line_number, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_number, "empty value for '" + key + "'");

    if (key == "mode") {
      if (value == "inject") config.mode = RunMode::kInject;
      else if (value == "beam") config.mode = RunMode::kBeam;
      else fail(line_number, "mode must be 'inject' or 'beam'");
    } else if (key == "workload") {
      config.workload = value;
    } else if (key == "seed") {
      config.seed = parse_u64(line_number, value);
    } else if (key == "report_file") {
      config.report_file = value;
    } else if (key == "journal_file") {
      config.journal_file = value;
    } else if (key == "resume") {
      if (value == "true") config.resume = true;
      else if (value == "false") config.resume = false;
      else fail(line_number, "resume must be 'true' or 'false'");
    } else if (key == "trace_file") {
      config.trace_file = value;
    } else if (key == "metrics_file") {
      config.metrics_file = value;
    } else if (key == "profile_file") {
      config.profile_file = value;
    } else if (key == "metrics_format") {
      if (value == "json") config.metrics_format = MetricsFormat::kJson;
      else if (value == "openmetrics") {
        config.metrics_format = MetricsFormat::kOpenMetrics;
      } else {
        fail(line_number, "metrics_format must be 'json' or 'openmetrics'");
      }
    } else if (key == "history_file") {
      config.history_file = value;
    } else if (key == "progress_seconds") {
      config.progress_seconds = parse_double(line_number, value);
    } else if (key == "journal_fsync") {
      if (value == "every-record") {
        config.journal_fsync = fi::JournalFsync::kEveryRecord;
      } else if (value == "on-close") {
        config.journal_fsync = fi::JournalFsync::kOnClose;
      } else if (value == "batch") {
        config.journal_fsync = fi::JournalFsync::kBatch;
      } else {
        fail(line_number,
             "journal_fsync must be 'every-record', 'on-close', or 'batch'");
      }
    } else if (key == "journal_batch_records") {
      config.journal_batch.max_records = parse_u64(line_number, value);
      if (config.journal_batch.max_records == 0) {
        fail(line_number, "journal_batch_records must be at least 1");
      }
    } else if (key == "journal_batch_ms") {
      config.journal_batch.max_delay_ms = parse_double(line_number, value);
    } else if (key == "trials") {
      config.trials = parse_u64(line_number, value);
    } else if (key == "jobs") {
      config.jobs = static_cast<unsigned>(parse_u64(line_number, value));
      if (config.jobs == 0) fail(line_number, "jobs must be at least 1");
    } else if (key == "stop_ci_width") {
      config.stop_ci_width = parse_double(line_number, value);
      if (config.stop_ci_width < 0.0 || config.stop_ci_width >= 0.5) {
        fail(line_number,
             "stop_ci_width must be in [0, 0.5) (a proportion half-width)");
      }
    } else if (key == "policy") {
      config.policy = parse_policy(line_number, value);
    } else if (key == "models") {
      config.models = parse_models(line_number, value);
    } else if (key == "earliest_fraction") {
      config.earliest_fraction = parse_double(line_number, value);
    } else if (key == "latest_fraction") {
      config.latest_fraction = parse_double(line_number, value);
    } else if (key == "flux") {
      config.flux = parse_double(line_number, value);
    } else if (key == "min_sdc") {
      config.min_sdc = parse_u64(line_number, value);
    } else if (key == "min_due") {
      config.min_due = parse_u64(line_number, value);
    } else if (key == "max_executions") {
      config.max_executions = parse_u64(line_number, value);
    } else if (key == "device_os_threads") {
      supervisor.device_os_threads =
          static_cast<unsigned>(parse_u64(line_number, value));
    } else if (key == "timeout_factor") {
      supervisor.timeout_factor = parse_double(line_number, value);
    } else if (key == "min_timeout_seconds") {
      supervisor.min_timeout_seconds = parse_double(line_number, value);
    } else if (key == "input_seed") {
      supervisor.input_seed = parse_u64(line_number, value);
    } else if (key == "kill_grace_seconds") {
      supervisor.kill_grace_seconds = parse_double(line_number, value);
    } else if (key == "child_address_space_mb") {
      supervisor.child_address_space_mb = parse_u64(line_number, value);
    } else if (key == "child_cpu_seconds") {
      supervisor.child_cpu_seconds =
          static_cast<unsigned>(parse_u64(line_number, value));
    } else if (key == "heartbeat_divisions") {
      supervisor.heartbeat_divisions =
          static_cast<unsigned>(parse_u64(line_number, value));
    } else if (key == "stall_timeout_seconds") {
      supervisor.stall_timeout_seconds = parse_double(line_number, value);
    } else if (key == "max_consecutive_failures") {
      config.max_consecutive_failures = parse_u64(line_number, value);
    } else if (key == "fabric_listen") {
      config.fabric_listen = value;
    } else if (key == "fabric_connect") {
      config.fabric_connect = value;
    } else if (key == "fabric_shard") {
      config.fabric_shard = value;
    } else if (key == "fabric_ledger") {
      config.fabric_ledger = value;
    } else if (key == "fabric_lease_size") {
      config.fabric_lease_size = parse_u64(line_number, value);
      if (config.fabric_lease_size == 0) {
        fail(line_number, "fabric_lease_size must be at least 1");
      }
    } else if (key == "fabric_heartbeat_seconds") {
      config.fabric_heartbeat_seconds = parse_double(line_number, value);
    } else if (key == "fabric_lease_timeout_seconds") {
      config.fabric_lease_timeout_seconds = parse_double(line_number, value);
    } else if (key == "fabric_reconnect_ms") {
      config.fabric_reconnect_ms = parse_double(line_number, value);
    } else if (key == "fabric_serve_metrics") {
      config.fabric_serve_metrics = value;
    } else {
      fail(line_number, "unknown key '" + key + "'");
    }
  }
  if (config.earliest_fraction < 0.0 || config.latest_fraction > 1.0 ||
      config.earliest_fraction >= config.latest_fraction) {
    throw std::runtime_error(
        "config: injection window must satisfy 0 <= earliest < latest <= 1");
  }
  if (!config.fabric_listen.empty() && !config.fabric_connect.empty()) {
    throw std::runtime_error(
        "config: fabric_listen (coordinator) and fabric_connect (worker) "
        "are mutually exclusive");
  }
  if (!config.fabric_connect.empty() && config.fabric_shard.empty()) {
    throw std::runtime_error(
        "config: a fabric worker needs fabric_shard (its shard journal)");
  }
  if (!config.fabric_serve_metrics.empty() && config.fabric_listen.empty()) {
    throw std::runtime_error(
        "config: fabric_serve_metrics requires fabric_listen (the "
        "coordinator serves the scrape endpoint)");
  }
  return config;
}

std::string format_config(const RunnerConfig& config) {
  const fi::SupervisorConfig& supervisor = config.supervisor;
  std::ostringstream os;
  os << "mode = " << (config.mode == RunMode::kBeam ? "beam" : "inject")
     << "\n"
     << "workload = " << config.workload << "\n"
     << "seed = " << config.seed << "\n";
  if (!config.report_file.empty()) {
    os << "report_file = " << config.report_file << "\n";
  }
  if (!config.journal_file.empty()) {
    os << "journal_file = " << config.journal_file << "\n";
  }
  if (config.resume) os << "resume = true\n";
  if (config.journal_fsync == fi::JournalFsync::kOnClose) {
    os << "journal_fsync = on-close\n";
  } else if (config.journal_fsync == fi::JournalFsync::kBatch) {
    os << "journal_fsync = batch\n"
       << "journal_batch_records = " << config.journal_batch.max_records
       << "\n"
       << "journal_batch_ms = " << config.journal_batch.max_delay_ms << "\n";
  }
  if (!config.trace_file.empty()) {
    os << "trace_file = " << config.trace_file << "\n";
  }
  if (!config.metrics_file.empty()) {
    os << "metrics_file = " << config.metrics_file << "\n";
  }
  if (!config.profile_file.empty()) {
    os << "profile_file = " << config.profile_file << "\n";
  }
  if (config.metrics_format == MetricsFormat::kOpenMetrics) {
    os << "metrics_format = openmetrics\n";
  }
  if (!config.history_file.empty()) {
    os << "history_file = " << config.history_file << "\n";
  }
  if (config.progress_seconds > 0.0) {
    os << "progress_seconds = " << config.progress_seconds << "\n";
  }
  os << "trials = " << config.trials << "\n"
     << "jobs = " << config.jobs << "\n";
  if (config.stop_ci_width > 0.0) {
    os << "stop_ci_width = " << config.stop_ci_width << "\n";
  }
  os << "policy = " << to_string(config.policy) << "\n"
     << "models = ";
  for (std::size_t i = 0; i < config.models.size(); ++i) {
    if (i) os << " + ";
    os << to_string(config.models[i]);
  }
  os << "\n"
     << "earliest_fraction = " << config.earliest_fraction << "\n"
     << "latest_fraction = " << config.latest_fraction << "\n"
     << "flux = " << config.flux << "\n"
     << "min_sdc = " << config.min_sdc << "\n"
     << "min_due = " << config.min_due << "\n"
     << "max_executions = " << config.max_executions << "\n"
     << "device_os_threads = " << supervisor.device_os_threads << "\n"
     << "timeout_factor = " << supervisor.timeout_factor << "\n"
     << "min_timeout_seconds = " << supervisor.min_timeout_seconds << "\n"
     << "input_seed = " << supervisor.input_seed << "\n"
     << "kill_grace_seconds = " << supervisor.kill_grace_seconds << "\n"
     << "child_address_space_mb = " << supervisor.child_address_space_mb << "\n"
     << "child_cpu_seconds = " << supervisor.child_cpu_seconds << "\n"
     << "heartbeat_divisions = " << supervisor.heartbeat_divisions << "\n"
     << "stall_timeout_seconds = " << supervisor.stall_timeout_seconds << "\n"
     << "max_consecutive_failures = " << config.max_consecutive_failures
     << "\n";
  if (!config.fabric_listen.empty()) {
    os << "fabric_listen = " << config.fabric_listen << "\n";
  }
  if (!config.fabric_connect.empty()) {
    os << "fabric_connect = " << config.fabric_connect << "\n";
  }
  if (!config.fabric_shard.empty()) {
    os << "fabric_shard = " << config.fabric_shard << "\n";
  }
  if (!config.fabric_ledger.empty()) {
    os << "fabric_ledger = " << config.fabric_ledger << "\n";
  }
  if (config.fabric_lease_size != 32) {
    os << "fabric_lease_size = " << config.fabric_lease_size << "\n";
  }
  if (config.fabric_heartbeat_seconds != 1.0) {
    os << "fabric_heartbeat_seconds = " << config.fabric_heartbeat_seconds
       << "\n";
  }
  if (config.fabric_lease_timeout_seconds != 5.0) {
    os << "fabric_lease_timeout_seconds = "
       << config.fabric_lease_timeout_seconds << "\n";
  }
  if (config.fabric_reconnect_ms != 200.0) {
    os << "fabric_reconnect_ms = " << config.fabric_reconnect_ms << "\n";
  }
  if (!config.fabric_serve_metrics.empty()) {
    os << "fabric_serve_metrics = " << config.fabric_serve_metrics << "\n";
  }
  return os.str();
}

}  // namespace phifi::cli
