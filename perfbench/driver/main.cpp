// Campaign benchmark driver.
//
//   perfbench_driver --workload <paper-mix|small-inputs|fabric-shards>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --reference <tallies.json> --run-dir <dir>
//                    [--smoke] [--damage-journal truncate|corrupt]
//                    [--write-reference]
//
// Repeats rounds of the workload until --seconds have passed and prints,
// as its last stdout line, one JSON object: with --trace 0 the end-to-end
// metrics (medians over rounds), with --trace 1 the per-layer metrics of a
// traced run. Exits 1 when an output check fails.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Smoke mode: a few trials per campaign, one round, and an epsilon any
/// tally meets.
constexpr std::size_t kSmokeTrials = 12;
constexpr double kSmokeEpsilon = 1.0;
/// Round index (it seeds the campaigns) of the traced run's campaigns on
/// the layer the workload's own rounds do not exercise.
constexpr std::size_t kOtherLayerRound = 1000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  bool write_reference = false;
  std::string damage;
  std::string reference;
  std::string run_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = std::stoi(value());
    } else if (flag == "--reference") {
      args.reference = value();
    } else if (flag == "--run-dir") {
      args.run_dir = value();
    } else if (flag == "--damage-journal") {
      args.damage = value();
      if (args.damage != "truncate" && args.damage != "corrupt") {
        throw std::runtime_error("--damage-journal: truncate or corrupt");
      }
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--write-reference") {
      args.write_reference = true;
    } else {
      throw std::runtime_error("unknown argument " + flag);
    }
  }
  if (args.reference.empty() || args.run_dir.empty()) {
    throw std::runtime_error("--reference and --run-dir are required");
  }
  if (args.trace != 0 && args.trace != 1) {
    throw std::runtime_error("--trace: 0 or 1");
  }
  return args;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs rounds until `seconds` have passed since `start`, at least
/// `min_rounds`, and (when `even` is set) an even number of them.
template <typename RoundFn>
void repeat_rounds(const Settings& settings, Clock::time_point start,
                   std::size_t min_rounds, bool even, RoundFn&& round_fn) {
  for (std::size_t r = 0;; ++r) {
    const bool time_left =
        !settings.smoke &&
        seconds_between(start, Clock::now()) < settings.seconds;
    if (r >= min_rounds && !time_left && (!even || r % 2 == 0)) break;
    round_fn(r);
  }
}

/// Each member's median over the rounds, combined into one typical round:
/// a hang-killed trial then stretches only its own member's outlier
/// campaigns, which the median skips, instead of the whole round.
std::vector<Metric> end_to_end_metrics(const std::vector<RoundResult>& rounds) {
  const std::size_t members = rounds.front().campaigns.size();
  double trials = 0.0, campaign_s = 0.0, setup_s = 0.0, cpu_s = 0.0;
  double time_to_ci_s = 0.0;
  for (std::size_t i = 0; i < members; ++i) {
    std::vector<double> campaign, setup, cpu, to_ci;
    for (const RoundResult& round : rounds) {
      const CampaignRun& run = round.campaigns[i];
      campaign.push_back(run.campaign_s);
      setup.push_back(run.setup_s);
      cpu.push_back(run.cpu_s);
      // Members run one after another, so the last one reaches epsilon
      // last: the estimate is ready at its CI point.
      to_ci.push_back(run.setup_s +
                      (i + 1 == members ? run.ci_s : run.campaign_s));
    }
    trials += static_cast<double>(rounds.front().campaigns[i].tally.trials);
    campaign_s += median(campaign);
    setup_s += median(setup);
    cpu_s += median(cpu);
    time_to_ci_s += median(to_ci);
  }
  std::vector<double> rss;
  for (const RoundResult& round : rounds) rss.push_back(round.peak_rss_mb);
  return {{"trials_per_s", ratio(trials, campaign_s), "1/s"},
          {"time_to_ci_s", time_to_ci_s, "s"},
          {"setup_s", setup_s, "s"},
          {"cpu_ms_per_trial", 1000.0 * ratio(cpu_s, trials), "ms"},
          {"peak_rss_mb", median(rss), "MB"}};
}

std::vector<Metric> per_layer_metrics(
    const ProbeResult& probe, const std::vector<const CampaignRun*>& local,
    const std::vector<const CampaignRun*>& fabric, double overhead_frac,
    double failed_frac) {
  using phifi::telemetry::ProfilePhase;
  std::vector<const CampaignRun*> all = local;
  all.insert(all.end(), fabric.begin(), fabric.end());
  phifi::telemetry::ProfileSnapshot profile;
  double golden = 0.0, busy = 0.0, capacity = 0.0;
  double journal_bytes = 0.0, persist_bytes = 0.0, attempts_local = 0.0;
  double committed_local = 0.0, setup_skipped = 0.0;
  std::vector<double> drain_ms;
  for (const CampaignRun* run : local) {
    const CampaignLayers& layers = run->layers;
    profile.fold(layers.profile);
    golden += layers.golden_s;
    busy += layers.slot_busy_s;
    capacity += layers.slot_capacity_s;
    journal_bytes += static_cast<double>(layers.journal_bytes);
    persist_bytes += static_cast<double>(layers.persist_bytes);
    attempts_local += static_cast<double>(layers.attempts);
    committed_local += static_cast<double>(run->tally.trials);
    setup_skipped += static_cast<double>(layers.setup_skipped);
    drain_ms.push_back(1000.0 * layers.drain_s);
  }
  double hang_trials = 0.0, hang_slot = 0.0, all_busy = 0.0;
  double escalated = 0.0, respawns = 0.0, not_injected = 0.0, attempts = 0.0;
  Tally verdicts;
  for (const CampaignRun* run : all) {
    const CampaignLayers& layers = run->layers;
    hang_trials += static_cast<double>(layers.hang_trials);
    hang_slot += layers.hang_slot_s;
    all_busy += layers.slot_busy_s;
    escalated += static_cast<double>(layers.escalated_kills);
    respawns += static_cast<double>(layers.template_respawns);
    not_injected += static_cast<double>(layers.not_injected);
    attempts += static_cast<double>(layers.attempts);
    verdicts.trials += run->tally.trials;
    verdicts.sdc += run->tally.sdc;
    verdicts.due += run->tally.due;
  }
  double leases = 0.0, reclaimed = 0.0, fabric_busy = 0.0;
  double fabric_capacity = 0.0;
  std::vector<double> worker_golden, merge, replay;
  for (const CampaignRun* run : fabric) {
    const CampaignLayers& layers = run->layers;
    leases += static_cast<double>(layers.leases_granted);
    reclaimed += static_cast<double>(layers.leases_reclaimed);
    fabric_busy += layers.slot_busy_s;
    fabric_capacity += layers.slot_capacity_s;
    worker_golden.push_back(layers.worker_golden_s);
    merge.push_back(layers.merge_s);
    replay.push_back(layers.replay_s);
  }
  const auto phase_ms = [&profile](ProfilePhase phase) {
    return profile.phase(phase).mean_ms();
  };
  const double trials = static_cast<double>(verdicts.trials);
  return {
      {"kernel.setup_ms", probe.kernel_setup_ms, "ms"},
      {"kernel.run_ms", probe.kernel_run_ms, "ms"},
      {"kernel.flops", probe.kernel_flops, "count"},
      {"kernel.bytes", probe.kernel_bytes, "bytes"},
      {"golden.prepare_s", ratio(golden, static_cast<double>(local.size())),
       "s"},
      {"supervisor.trial_ms_p50", probe.trial_p50_ms, "ms"},
      {"supervisor.trial_ms_p99", probe.trial_p99_ms, "ms"},
      {"supervisor.overhead_x", probe.overhead_x, "x"},
      {"trial.fork_ms", phase_ms(ProfilePhase::kFork), "ms"},
      {"trial.setup_ms", phase_ms(ProfilePhase::kSetup), "ms"},
      {"trial.inject_ms", phase_ms(ProfilePhase::kInject), "ms"},
      {"trial.run_ms", phase_ms(ProfilePhase::kRun), "ms"},
      {"trial.classify_ms", phase_ms(ProfilePhase::kClassify), "ms"},
      {"trial.setup_skipped_frac", ratio(setup_skipped, attempts_local),
       "frac"},
      {"watchdog.hang_trials", hang_trials, "count"},
      {"watchdog.hang_slot_frac", ratio(hang_slot, all_busy), "frac"},
      {"trial.escalated_kills", escalated, "count"},
      {"supervisor.template_respawns", respawns, "count"},
      {"sched.busy_frac", ratio(busy, capacity), "frac"},
      {"sched.rob_wait_ms", phase_ms(ProfilePhase::kRobWait), "ms"},
      {"sched.drain_ms", median(drain_ms), "ms"},
      {"sched.scaling_eff", probe.scaling_eff, "frac"},
      {"trial.not_injected_frac", ratio(not_injected, attempts), "frac"},
      {"journal.append_ms", phase_ms(ProfilePhase::kJournal), "ms"},
      {"journal.flush_ms", phase_ms(ProfilePhase::kFlush), "ms"},
      {"journal.bytes_per_trial", ratio(journal_bytes, attempts_local),
       "bytes"},
      {"journal.replay_s", median(replay), "s"},
      {"fabric.leases_granted", leases, "count"},
      {"fabric.leases_reclaimed", reclaimed, "count"},
      {"fabric.worker_golden_s", median(worker_golden), "s"},
      {"fabric.idle_frac", 1.0 - ratio(fabric_busy, fabric_capacity), "frac"},
      {"fabric.merge_s", median(merge), "s"},
      {"telemetry.overhead_frac", overhead_frac, "frac"},
      {"persist.bytes_per_trial", ratio(persist_bytes, committed_local),
       "bytes"},
      {"verdict.sdc_frac", ratio(static_cast<double>(verdicts.sdc), trials),
       "frac"},
      {"verdict.due_frac", ratio(static_cast<double>(verdicts.due), trials),
       "frac"},
      {"verdict.hang_frac", ratio(hang_trials, trials), "frac"},
      {"failed_frac", failed_frac, "frac"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Settings settings;
  settings.set = find_set(args.workload);
  if (settings.set == nullptr) {
    std::string known;
    for (const std::string& name : set_names()) known += " " + name;
    throw std::runtime_error("unknown workload '" + args.workload +
                             "'; known:" + known);
  }
  settings.seed = args.seed;
  settings.seconds = args.seconds;
  settings.traced = args.trace == 1;
  settings.smoke = args.smoke;
  settings.damage = args.damage;
  settings.write_reference = args.write_reference;
  settings.jobs =
      static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  settings.worker_jobs = std::max(1u, settings.jobs / settings.fabric_workers);
  settings.trials = args.smoke ? kSmokeTrials : settings.set->trials;
  settings.epsilon = args.smoke ? kSmokeEpsilon : settings.set->epsilon;
  const std::string tag = settings.set->name + "-" + std::to_string(args.seed);
  settings.run_dir = args.run_dir + "/" + tag;
  std::filesystem::remove_all(settings.run_dir);
  std::filesystem::create_directories(settings.run_dir);
  if (!args.write_reference || std::filesystem::exists(args.reference)) {
    settings.reference = load_reference(args.reference);
  }
  const HostTicks ticks_start = host_ticks();

  const std::vector<Member>& members = settings.set->members;
  const auto start = Clock::now();
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Tally> pooled;
  const auto account = [&](const RoundResult& round) {
    std::fprintf(stderr,
                 "round: trials_per_s=%.1f time_to_ci_s=%.3f setup_s=%.4f "
                 "cpu_ms_per_trial=%.3f peak_rss_mb=%.2f committed=%llu\n",
                 round.trials_per_s(), round.time_to_ci_s, round.setup_s,
                 1000.0 * ratio(round.cpu_s,
                                static_cast<double>(round.committed)),
                 round.peak_rss_mb,
                 static_cast<unsigned long long>(round.committed));
    errors.insert(errors.end(), round.errors.begin(), round.errors.end());
    attempted += round.attempted;
    failed += round.failed;
    for (const CampaignRun& run : round.campaigns) {
      std::fprintf(stderr, "  %-20s campaign_s=%.3f hangs=%llu\n",
                   run.label.c_str(), run.campaign_s,
                   static_cast<unsigned long long>(run.layers.hang_trials));
      Tally& tally = pooled[run.label];
      tally.trials += run.tally.trials;
      tally.masked += run.tally.masked;
      tally.sdc += run.tally.sdc;
      tally.due += run.tally.due;
    }
  };

  std::vector<Metric> metrics;
  if (!settings.traced) {
    std::vector<RoundResult> rounds;
    repeat_rounds(settings, start, 1, false, [&](std::size_t r) {
      rounds.push_back(run_round(settings, members, settings.set->fabric,
                                 settings.trials, r, nullptr));
      account(rounds.back());
    });
    metrics = end_to_end_metrics(rounds);
  } else {
    SpanLog spans(start);
    const ProbeResult probe = run_probes(settings, &spans);
    // Untraced and traced rounds alternate, so the overhead estimate sees
    // the same host conditions on both sides.
    std::vector<RoundResult> traced_rounds;
    std::vector<double> untraced_tps;
    std::vector<double> traced_tps;
    repeat_rounds(settings, start, 2, true, [&](std::size_t r) {
      const bool traced = r % 2 == 1;
      const Tracing tracing{&spans, -1};
      RoundResult round =
          run_round(settings, members, settings.set->fabric, settings.trials,
                    r, traced ? &tracing : nullptr);
      account(round);
      (traced ? traced_tps : untraced_tps).push_back(round.trials_per_s());
      if (traced) traced_rounds.push_back(std::move(round));
    });
    // The layer the workload's rounds do not exercise is measured once on
    // its own: local campaigns for fabric-shards, a fabric campaign of one
    // member for the local workloads.
    const Tracing tracing{&spans, -1};
    const std::vector<Member> other_members =
        settings.set->fabric
            ? members
            : std::vector<Member>{members[settings.set->fabric_probe_member]};
    const RoundResult other_round =
        run_round(settings, other_members, !settings.set->fabric,
                  settings.trials, kOtherLayerRound, &tracing);
    account(other_round);

    std::vector<const CampaignRun*> own;
    for (const RoundResult& round : traced_rounds) {
      for (const CampaignRun& run : round.campaigns) own.push_back(&run);
    }
    std::vector<const CampaignRun*> other;
    for (const CampaignRun& run : other_round.campaigns) other.push_back(&run);
    const auto& local = settings.set->fabric ? other : own;
    const auto& fabric = settings.set->fabric ? own : other;
    metrics = per_layer_metrics(
        probe, local, fabric, 1.0 - ratio(median(traced_tps), median(untraced_tps)),
        ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    const std::string span_path = args.run_dir + "/" + tag + ".spans.ndjson";
    spans.write(span_path);
    std::cerr << "spans: " << span_path << "\n" << spans.summary();
  }
  std::filesystem::remove_all(settings.run_dir);

  if (args.write_reference) {
    std::map<std::string, Tally> reference = settings.reference;
    for (const auto& [label, tally] : pooled) reference[label] = tally;
    store_reference(args.reference, reference, args.seed);
  }
  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      errors.push_back(metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  for (const std::string& error : errors) {
    std::cerr << "check failed: " << error << "\n";
  }
  std::cout << "host " << host_stamp(settings, ticks_start) << std::endl;
  print_result(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
