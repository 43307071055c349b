// One round of a benchmark workload: every member campaign once, each
// followed by its output check.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/drift.hpp"
#include "bench.hpp"
#include "cli/config.hpp"
#include "core/campaign_journal.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/merge.hpp"
#include "fabric/worker.hpp"
#include "telemetry/history.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "workloads/clamr_workload.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/hotspot.hpp"
#include "workloads/lud.hpp"
#include "workloads/nw.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace fi = phifi::fi;
namespace fabric = phifi::fabric;
namespace telemetry = phifi::telemetry;

namespace {

// Small sizes of the sec5 fast-path table: little kernel time, so most of
// a trial is fork, setup, inject, reap and commit.
std::unique_ptr<fi::Workload> make_dgemm32() {
  return std::make_unique<phifi::work::Dgemm>(32);
}
std::unique_ptr<fi::Workload> make_hotspot32() {
  return std::make_unique<phifi::work::HotSpot>(32, 32);
}
std::unique_ptr<fi::Workload> make_lud32() {
  return std::make_unique<phifi::work::Lud>(32);
}
std::unique_ptr<fi::Workload> make_nw64() {
  return std::make_unique<phifi::work::Nw>(64);
}
std::unique_ptr<fi::Workload> make_clamr_small() {
  phifi::work::clamr::MeshParams params;
  params.base_size = 16;
  params.max_refine = 4;
  return std::make_unique<phifi::work::Clamr>(params, 1);
}

const std::vector<WorkloadSet>& sets() {
  static const std::vector<WorkloadSet> kSets = [] {
    WorkloadSet paper;
    paper.name = "paper-mix";
    for (const phifi::work::WorkloadInfo& info :
         phifi::work::all_workloads()) {
      paper.members.push_back({std::string(info.name), info.factory});
    }
    paper.trials = 100;
    paper.epsilon = 0.1;
    paper.fabric_probe_member = 4;  // LUD

    WorkloadSet small;
    small.name = "small-inputs";
    small.members = {{"DGEMM(32)", &make_dgemm32},
                     {"HotSpot(32x32)", &make_hotspot32},
                     {"LUD(32)", &make_lud32},
                     {"NW(64)", &make_nw64},
                     {"CLAMR(16,+4,1step)", &make_clamr_small}};
    small.trials = 50;
    small.epsilon = 0.14;
    small.fabric_probe_member = 2;  // LUD(32)

    WorkloadSet shards;
    shards.name = "fabric-shards";
    shards.members = {{"LUD(32)", &make_lud32}, {"NW(64)", &make_nw64}};
    shards.trials = 200;
    shards.epsilon = 0.07;
    shards.fabric = true;
    return std::vector<WorkloadSet>{paper, small, shards};
  }();
  return kSets;
}

/// Attempt indices per fabric lease: small, so a campaign spans many
/// lease round trips and ledger appends.
constexpr std::uint64_t kLeaseSize = 16;
/// Per-slice significance of the SDC/DUE drift test against the reference
/// tallies. A run makes a few dozen tests and a series of runs a few
/// thousand, so a false alarm must stay rare; a real verdict change of ten
/// points over a few hundred trials still clears it.
constexpr double kDriftAlpha = 1e-6;
/// A fabric campaign that has not completed by then is cancelled.
constexpr unsigned kCoordinatorTimeoutSeconds = 120;

std::atomic<bool> g_coordinator_stop{false};
extern "C" void on_coordinator_alarm(int) {
  g_coordinator_stop.store(true, std::memory_order_relaxed);
}

/// Set in a fabric worker by SIGTERM. A worker that joins after the
/// coordinator has finished never hears kShutdown and would keep trying to
/// reconnect, so the driver stops every worker once the coordinator is done.
std::atomic<bool> g_worker_stop{false};
extern "C" void on_worker_term(int) {
  g_worker_stop.store(true, std::memory_order_relaxed);
}

std::string file_stem(const std::string& label) {
  std::string out;
  for (char c : label) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(size);
}

Tally tally_of(const fi::OutcomeTally& overall) {
  return {overall.total(), overall.masked, overall.sdc, overall.due};
}

/// Folds journal records, in attempt order, into fresh tallies.
fi::CampaignResult replay_records(std::vector<fi::JournalRecord> records,
                                  unsigned windows,
                                  std::vector<std::string>& errors,
                                  const std::string& who) {
  fi::CampaignResult out;
  out.time_windows = windows;
  out.by_window.resize(windows);
  std::sort(records.begin(), records.end(),
            [](const fi::JournalRecord& a, const fi::JournalRecord& b) {
              return a.attempt_index < b.attempt_index;
            });
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].attempt_index != i) {
      errors.push_back(who + ": journal attempt " + std::to_string(i) +
                       " missing or duplicated");
      break;
    }
    fi::accumulate_trial(out, records[i].trial);
  }
  out.attempts = out.trials.size();
  return out;
}

bool same_tallies(const fi::CampaignResult& a, const fi::CampaignResult& b) {
  const auto eq = [](const fi::OutcomeTally& x, const fi::OutcomeTally& y) {
    return x.masked == y.masked && x.sdc == y.sdc && x.due == y.due;
  };
  if (!eq(a.overall, b.overall) || a.not_injected != b.not_injected ||
      a.due_kinds != b.due_kinds || a.by_window.size() != b.by_window.size() ||
      a.by_category.size() != b.by_category.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.by_model.size(); ++m) {
    if (!eq(a.by_model[m], b.by_model[m])) return false;
  }
  for (std::size_t w = 0; w < a.by_window.size(); ++w) {
    if (!eq(a.by_window[w], b.by_window[w])) return false;
  }
  for (const auto& [category, tally] : a.by_category) {
    const auto it = b.by_category.find(category);
    if (it == b.by_category.end() || !eq(tally, it->second)) return false;
  }
  return true;
}

/// Committed count, and the per-model, per-window and DUE-kind sums.
void check_sums(const fi::CampaignResult& result, std::size_t trials,
                std::vector<std::string>& errors, const std::string& who) {
  const std::uint64_t total = result.overall.total();
  if (total != trials) {
    errors.push_back(who + ": committed " + std::to_string(total) +
                     " injected trials (masked " +
                     std::to_string(result.overall.masked) + ", sdc " +
                     std::to_string(result.overall.sdc) + ", due " +
                     std::to_string(result.overall.due) + ", attempts " +
                     std::to_string(result.attempts) + ", log " +
                     std::to_string(result.trials.size()) + "), target " +
                     std::to_string(trials));
  }
  std::uint64_t by_model = 0;
  for (const fi::OutcomeTally& tally : result.by_model) by_model += tally.total();
  std::uint64_t by_window = 0;
  for (const fi::OutcomeTally& tally : result.by_window) {
    by_window += tally.total();
  }
  std::uint64_t due_kinds = 0;
  for (const auto& [kind, count] : result.due_kinds) due_kinds += count;
  if (by_model != total || by_window != total ||
      due_kinds != result.overall.due) {
    errors.push_back(who + ": per-model/per-window/DUE-kind sums disagree "
                           "with the overall tally");
  }
}

void check_drift(const Settings& settings, const std::string& label,
                 const Tally& tally, std::vector<std::string>& errors) {
  if (settings.write_reference) return;
  const auto it = settings.reference.find(label);
  if (it == settings.reference.end()) {
    errors.push_back(label + ": no reference tallies");
    return;
  }
  const auto record = [&label](const Tally& t) {
    telemetry::HistoryRecord r;
    r.workload = label;
    r.completed = t.trials;
    r.masked = t.masked;
    r.sdc = t.sdc;
    r.due = t.due;
    return r;
  };
  const phifi::analysis::DriftReport report = phifi::analysis::compute_drift(
      record(it->second), record(tally), kDriftAlpha);
  for (const phifi::analysis::DriftEntry& entry : report.entries) {
    if (!entry.significant) continue;
    errors.push_back(label + ": " + entry.slice + " rate " +
                     std::to_string(entry.current_rate) + " vs reference " +
                     std::to_string(entry.baseline_rate) +
                     " (p=" + std::to_string(entry.p_value) + ")");
  }
}

/// Test hook: damages a written journal the way a crash or bad disk would.
void damage_journal(const std::string& mode, const std::string& path) {
  const std::uint64_t size = file_size(path);
  if (size < 16) return;
  if (mode == "truncate") {
    std::filesystem::resize_file(path, size - 5);
    return;
  }
  // Flip one payload byte of the last record (its CRC is the final 4).
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) throw std::runtime_error("cannot open " + path);
  const long offset = static_cast<long>(size) - 9;
  std::fseek(file, offset, SEEK_SET);
  const int byte = std::fgetc(file);
  std::fseek(file, offset, SEEK_SET);
  std::fputc(byte ^ 0x5a, file);
  std::fclose(file);
}

void observe_trials(const std::vector<fi::TrialResult>& trials,
                    CampaignLayers& layers) {
  for (const fi::TrialResult& trial : trials) {
    layers.slot_busy_s += trial.seconds;
    if (trial.outcome == fi::Outcome::kDue &&
        trial.due_kind == fi::DueKind::kHang) {
      ++layers.hang_trials;
      layers.hang_slot_s += trial.seconds;
    }
    if (trial.escalated_kill) ++layers.escalated_kills;
    if (trial.setup_skipped) ++layers.setup_skipped;
  }
}

/// Wilson half-width watch plus (traced) per-trial spans, fed from the
/// campaign's commit-order observer.
struct TrialWatch {
  double epsilon = 0.0;
  std::uint64_t n = 0;
  std::uint64_t sdc = 0;
  bool reached = false;
  Clock::time_point reached_at{};
  Clock::time_point last{};
  SpanLog* spans = nullptr;
  int parent = -1;
  std::string trial_prefix;

  void operator()(const fi::TrialResult& trial) {
    last = Clock::now();
    ++n;
    if (trial.outcome == fi::Outcome::kSdc) ++sdc;
    if (!reached &&
        phifi::util::wilson_interval(sdc, n).half_width() <= epsilon) {
      reached = true;
      reached_at = last;
    }
    if (spans == nullptr) return;
    // The trial's own offsets place its phases; it was classified no
    // later than this commit, so anchor its end here.
    const double end = spans->ms_at(last);
    const double start = end - 1000.0 * trial.classified_seconds;
    const std::string id = trial_prefix + std::to_string(n);
    const int root = spans->add("trial", parent, start, end, id);
    spans->add("trial.fork", root, start,
               start + 1000.0 * trial.fork_done_seconds, id);
    spans->add("trial.run", root, start + 1000.0 * trial.fork_done_seconds,
               start + 1000.0 * trial.reaped_seconds, id);
    spans->add("trial.classify", root, start + 1000.0 * trial.reaped_seconds,
               end, id);
  }
};

CampaignRun run_local(const Settings& settings, const Member& member,
                      std::size_t index, std::size_t trials, std::size_t round,
                      const Tracing* tracing,
                      std::vector<std::string>& errors) {
  SpanLog* spans = tracing != nullptr ? tracing->spans : nullptr;
  const std::string stem = settings.run_dir + "/" + file_stem(member.label);
  const std::string journal = stem + ".jnl";
  CampaignRun run;
  run.label = member.label;
  ScopedSpan campaign_span(spans, "campaign " + member.label,
                           tracing != nullptr ? tracing->parent : -1);

  std::unique_ptr<telemetry::TrialProfiler> profiler;
  std::unique_ptr<telemetry::TraceWriter> trace;
  telemetry::MetricsRegistry metrics;
  fi::CampaignConfig config =
      campaign_config(campaign_seed(settings, round, index), trials,
                      settings.jobs, journal);
  if (tracing != nullptr) {
    profiler = std::make_unique<telemetry::TrialProfiler>(stem + ".profile");
    trace = std::make_unique<telemetry::TraceWriter>(stem + ".trace");
    config.profiler = profiler.get();
    config.trace = trace.get();
    config.metrics = &metrics;
  }
  TrialWatch watch;
  watch.epsilon = settings.epsilon;
  watch.spans = spans;
  watch.trial_prefix = member.label + "/" + std::to_string(round) + "/";

  const double cpu_start = cpu_seconds();
  const auto setup_start = Clock::now();
  std::optional<ScopedSpan> setup_span(std::in_place, spans,
                                       "supervisor.setup", campaign_span.id());
  auto supervisor = std::make_unique<fi::TrialSupervisor>(
      member.factory, supervisor_config(input_seed(settings, round, index)));
  const auto golden_start = Clock::now();
  supervisor->prepare_golden();
  const auto setup_end = Clock::now();
  setup_span.reset();
  run.setup_s = seconds_between(setup_start, setup_end);
  run.layers.golden_s = seconds_between(golden_start, setup_end);

  fi::CampaignResult result;
  Clock::time_point run_end;
  {
    ScopedSpan run_span(spans, "campaign.run", campaign_span.id());
    watch.parent = run_span.id();
    result = fi::Campaign(*supervisor, config)
                 .run([&watch](const fi::TrialResult& trial,
                               std::span<const std::byte>) { watch(trial); });
    run_end = Clock::now();
    run.layers.template_respawns = supervisor->template_respawns();
    supervisor.reset();  // reaps template and warm-image children
  }
  const auto campaign_end = Clock::now();
  run.cpu_s = cpu_seconds() - cpu_start;
  run.campaign_s = seconds_between(setup_end, campaign_end);
  if (watch.reached) run.ci_s = seconds_between(setup_end, watch.reached_at);
  if (watch.n > 0) run.layers.drain_s = seconds_between(watch.last, run_end);
  run.tally = tally_of(result.overall);
  run.layers.attempts = result.attempts;
  run.layers.not_injected = result.not_injected;
  run.layers.slot_capacity_s =
      seconds_between(setup_end, run_end) * settings.jobs;
  observe_trials(result.trials, run.layers);
  run.layers.journal_bytes = file_size(journal);
  run.layers.persist_bytes = run.layers.journal_bytes;
  std::uint64_t infra_failures = 0;
  if (tracing != nullptr) {
    run.layers.profile = profiler->snapshot();
    profiler.reset();
    trace.reset();
    run.layers.persist_bytes +=
        file_size(stem + ".profile") + file_size(stem + ".trace");
    if (const auto* counter = metrics.find_counter("campaign.infra_failures")) {
      infra_failures = counter->value();
    }
  }
  run.attempted =
      result.attempts + infra_failures + run.layers.template_respawns;
  run.failed = infra_failures + run.layers.template_respawns;

  // ---- output check ----
  const std::size_t errors_before = errors.size();
  ScopedSpan check_span(spans, "check", campaign_span.id());
  if (result.aborted || result.interrupted) {
    errors.push_back(member.label + ": campaign aborted or interrupted");
  }
  check_sums(result, trials, errors, member.label);
  if (result.trials.size() != result.attempts) {
    errors.push_back(member.label + ": trial log and attempt count differ");
  }
  if (!settings.damage.empty() && index == 0) {
    damage_journal(settings.damage, journal);
  }
  try {
    const auto replay_start = Clock::now();
    fi::JournalContents contents = fi::read_journal(journal);
    const fi::CampaignResult replayed = replay_records(
        std::move(contents.records), result.time_windows, errors,
        member.label);
    run.layers.replay_s = seconds_between(replay_start, Clock::now());
    if (contents.dropped_bytes != 0) {
      errors.push_back(member.label + ": journal has " +
                       std::to_string(contents.dropped_bytes) +
                       " torn or corrupt bytes");
    }
    if (contents.header.workload != result.workload ||
        replayed.attempts != result.attempts ||
        !same_tallies(replayed, result)) {
      errors.push_back(member.label +
                       ": journal replay does not reproduce the tallies");
    }
  } catch (const std::exception& error) {
    errors.push_back(member.label + ": journal unreadable: " + error.what());
  }
  check_drift(settings, member.label, run.tally, errors);
  if (!watch.reached) {
    errors.push_back(member.label + ": SDC half-width never reached " +
                     std::to_string(settings.epsilon));
  }
  if (errors.size() != errors_before) run.failed += trials;
  return run;
}

/// What a fabric worker reports back to the driver over its pipe.
struct WorkerReport {
  double ready_s = 0.0;   ///< fork to golden done
  double golden_s = 0.0;  ///< supervisor construction + golden run
  std::uint64_t template_respawns = 0;
};

[[noreturn]] void worker_main(const Member& member, std::uint64_t input,
                              fi::CampaignConfig config,
                              std::uint64_t fingerprint,
                              fabric::FabricOptions options, int report_fd,
                              Clock::time_point forked, pid_t driver) {
  // Die with the driver, so a driver killed mid-run leaves no worker.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != driver) ::_exit(5);
  struct sigaction action {};
  action.sa_handler = &on_worker_term;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  sigset_t term;
  ::sigemptyset(&term);
  ::sigaddset(&term, SIGTERM);
  ::sigprocmask(SIG_UNBLOCK, &term, nullptr);
  config.stop_flag = &g_worker_stop;
  int code = 3;
  try {
    WorkerReport report;
    bool usable = false;
    {
      const auto start = Clock::now();
      fi::TrialSupervisor supervisor(member.factory,
                                     supervisor_config(input));
      supervisor.prepare_golden();
      const auto ready = Clock::now();
      report.ready_s = seconds_between(forked, ready);
      report.golden_s = seconds_between(start, ready);
      std::ostringstream sink;
      const fabric::WorkerResult result = fabric::run_worker(
          supervisor, config, fingerprint, options, nullptr, nullptr, sink);
      usable = !result.rejected && !result.aborted;
      report.template_respawns = supervisor.template_respawns();
    }
    const auto* bytes = reinterpret_cast<const char*>(&report);
    std::size_t done = 0;
    while (done < sizeof(report)) {
      const ssize_t n = ::write(report_fd, bytes + done, sizeof(report) - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    code = usable && done == sizeof(report) ? 0 : 3;
  } catch (...) {
    code = 4;
  }
  ::_exit(code);
}

struct ForkedWorker {
  pid_t pid = -1;
  int report_fd = -1;
};

/// How long a stopped worker may take to exit before it is killed.
constexpr double kWorkerExitSeconds = 10.0;

/// Waits for a stopped worker, killing it if it overstays, and reads its
/// report; false unless it exited 0 with a complete report.
bool reap_worker(const ForkedWorker& worker, WorkerReport* report) {
  int status = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWorkerExitSeconds));
  while (true) {
    const pid_t done = ::waitpid(worker.pid, &status, WNOHANG);
    if (done == worker.pid || (done < 0 && errno != EINTR)) break;
    if (Clock::now() >= deadline) {
      ::kill(worker.pid, SIGKILL);
      while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    ::usleep(1000);
  }
  std::size_t done = 0;
  auto* bytes = reinterpret_cast<char*>(report);
  while (done < sizeof(*report)) {
    const ssize_t n =
        ::read(worker.report_fd, bytes + done, sizeof(*report) - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(worker.report_fd);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         done == sizeof(*report);
}

CampaignRun run_fabric(const Settings& settings, const Member& member,
                       std::size_t index, std::size_t trials,
                       std::size_t round, const Tracing* tracing,
                       std::vector<std::string>& errors) {
  SpanLog* spans = tracing != nullptr ? tracing->spans : nullptr;
  const std::string stem = settings.run_dir + "/f" + std::to_string(index);
  const std::string socket = stem + ".sock";
  const std::string ledger = stem + ".ledger";
  const std::string merged = stem + ".merged.jnl";
  std::vector<std::string> shards;
  for (unsigned w = 0; w < settings.fabric_workers; ++w) {
    shards.push_back(stem + ".w" + std::to_string(w) + ".jnl");
  }
  for (const std::string& path : {socket, ledger, merged}) {
    ::unlink(path.c_str());
  }
  for (const std::string& path : shards) ::unlink(path.c_str());

  CampaignRun run;
  run.label = member.label;
  ScopedSpan campaign_span(spans, "fabric " + member.label,
                           tracing != nullptr ? tracing->parent : -1);
  const std::unique_ptr<fi::Workload> shape = member.factory();
  const std::string name(shape->name());
  const unsigned windows = shape->time_windows();
  fi::CampaignConfig config =
      campaign_config(campaign_seed(settings, round, index), trials,
                      settings.worker_jobs, "");
  const std::uint64_t fingerprint =
      fi::campaign_fingerprint(config, name, windows);
  fabric::FabricOptions options;
  options.address = "unix:" + socket;
  options.ledger_path = ledger;
  options.lease_size = kLeaseSize;

  std::cout.flush();
  std::cerr.flush();
  const pid_t driver = ::getpid();
  const double cpu_start = cpu_seconds();
  // Workers start with SIGTERM blocked until their handler is in place, so
  // an early stop cannot kill one outright.
  sigset_t term;
  sigset_t mask;
  ::sigemptyset(&term);
  ::sigaddset(&term, SIGTERM);
  ::sigprocmask(SIG_BLOCK, &term, &mask);
  const auto forked = Clock::now();
  std::vector<ForkedWorker> workers;
  for (unsigned w = 0; w < settings.fabric_workers; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      fabric::FabricOptions worker_options = options;
      worker_options.ledger_path.clear();
      worker_options.shard_path = shards[w];
      worker_main(member, input_seed(settings, round, index), config,
                  fingerprint, worker_options, fds[1], forked, driver);
    }
    ::close(fds[1]);
    workers.push_back({pid, fds[0]});
  }
  ::sigprocmask(SIG_SETMASK, &mask, nullptr);

  // The coordinator loop has no deadline of its own: if every worker died
  // it would wait forever, so an alarm trips its stop flag.
  g_coordinator_stop.store(false);
  struct sigaction action {};
  action.sa_handler = &on_coordinator_alarm;
  ::sigemptyset(&action.sa_mask);
  struct sigaction previous {};
  ::sigaction(SIGALRM, &action, &previous);
  fi::CampaignConfig coordinator_config = config;
  coordinator_config.stop_flag = &g_coordinator_stop;

  const auto start = Clock::now();
  fabric::CoordinatorResult coordinator;
  {
    ScopedSpan span(spans, "fabric.coordinator", campaign_span.id());
    ::alarm(kCoordinatorTimeoutSeconds);
    std::ostringstream sink;
    coordinator = fabric::run_coordinator(coordinator_config, fingerprint,
                                          options, nullptr, nullptr, nullptr,
                                          nullptr, sink);
    ::alarm(0);
  }
  ::sigaction(SIGALRM, &previous, nullptr);
  const auto coordinator_end = Clock::now();
  for (const ForkedWorker& worker : workers) ::kill(worker.pid, SIGTERM);
  bool workers_ok = true;
  {
    ScopedSpan span(spans, "fabric.drain", campaign_span.id());
    for (const ForkedWorker& worker : workers) {
      WorkerReport report;
      workers_ok = reap_worker(worker, &report) && workers_ok;
      run.setup_s = std::max(run.setup_s, report.ready_s);
      run.layers.worker_golden_s =
          std::max(run.layers.worker_golden_s, report.golden_s);
      run.layers.template_respawns += report.template_respawns;
    }
  }
  const auto drained = Clock::now();
  run.layers.golden_s = run.layers.worker_golden_s;
  run.layers.drain_s = seconds_between(coordinator_end, drained);

  fabric::MergeSummary summary;
  fi::CampaignResult replayed;
  std::uint64_t dropped = 0;
  const std::size_t errors_before = errors.size();
  try {
    {
      ScopedSpan span(spans, "fabric.merge", campaign_span.id());
      fabric::MergeOptions merge;
      // A worker that joined after the last lease was granted wrote none.
      for (const std::string& path : shards) {
        if (std::filesystem::exists(path)) merge.shards.push_back(path);
      }
      merge.out_path = merged;
      summary = fabric::merge_shards(config, name, windows, merge);
    }
    const auto merge_end = Clock::now();
    run.layers.merge_s = seconds_between(drained, merge_end);
    if (!settings.damage.empty() && index == 0) {
      damage_journal(settings.damage, merged);
    }
    ScopedSpan span(spans, "journal.replay", campaign_span.id());
    fi::JournalContents contents = fi::read_journal(merged);
    dropped = contents.dropped_bytes;
    replayed = replay_records(std::move(contents.records), windows, errors,
                              member.label);
    run.layers.replay_s = seconds_between(merge_end, Clock::now());
  } catch (const std::exception& error) {
    errors.push_back(member.label + ": merge/replay failed: " + error.what());
  }
  const auto end = Clock::now();
  run.cpu_s = cpu_seconds() - cpu_start;
  run.campaign_s = seconds_between(start, end);
  run.tally = tally_of(replayed.overall);
  run.layers.attempts = replayed.attempts;
  run.layers.not_injected = replayed.not_injected;
  run.layers.slot_capacity_s = seconds_between(start, coordinator_end) *
                               settings.fabric_workers * settings.worker_jobs;
  observe_trials(replayed.trials, run.layers);
  run.layers.journal_bytes = file_size(merged);
  for (const std::string& path : shards) {
    run.layers.persist_bytes += file_size(path);
  }
  run.layers.persist_bytes += file_size(ledger) + run.layers.journal_bytes;
  run.layers.leases_granted = coordinator.leases_granted;
  run.layers.leases_reclaimed = coordinator.leases_reclaimed;
  // The merged result is what tells the user the estimate is ready.
  if (replayed.overall.total() > 0 &&
      phifi::util::wilson_interval(replayed.overall.sdc,
                                   replayed.overall.total())
              .half_width() <= settings.epsilon) {
    run.ci_s = run.campaign_s;
  }
  run.attempted = summary.shard_records + run.layers.template_respawns;
  run.failed = summary.duplicates + run.layers.template_respawns;

  // ---- output check ----
  if (!coordinator.complete || !coordinator.fleet_boundary) {
    errors.push_back(member.label + ": coordinator did not complete");
  }
  if (!workers_ok) errors.push_back(member.label + ": a worker failed");
  if (dropped != 0) {
    errors.push_back(member.label + ": merged journal has " +
                     std::to_string(dropped) + " torn or corrupt bytes");
  }
  check_sums(replayed, trials, errors, member.label);
  const fi::OutcomeTally& overall = replayed.overall;
  if (overall.masked != coordinator.fleet_masked ||
      overall.sdc != coordinator.fleet_sdc ||
      overall.due != coordinator.fleet_due ||
      replayed.not_injected != coordinator.fleet_not_injected ||
      replayed.due_kinds != coordinator.fleet_due_kinds) {
    errors.push_back(member.label +
                     ": merged replay differs from the coordinator's fleet "
                     "tally");
  }
  check_drift(settings, member.label, run.tally, errors);
  if (run.ci_s < 0.0) {
    errors.push_back(member.label + ": SDC half-width never reached " +
                     std::to_string(settings.epsilon));
  }
  if (errors.size() != errors_before) run.failed += trials;
  return run;
}

}  // namespace

const WorkloadSet* find_set(std::string_view name) {
  for (const WorkloadSet& set : sets()) {
    if (set.name == name) return &set;
  }
  return nullptr;
}

std::vector<std::string> set_names() {
  std::vector<std::string> names;
  for (const WorkloadSet& set : sets()) names.push_back(set.name);
  return names;
}

std::uint64_t campaign_seed(const Settings& settings, std::size_t round,
                            std::size_t member) {
  phifi::util::SplitMix64 mix(settings.seed ^
                              (0xa0761d6478bd642fULL * (round + 1)) ^
                              (0xe7037ed1a0b428dbULL * (member + 1)));
  return mix.next();
}

std::uint64_t input_seed(const Settings& settings, std::size_t round,
                         std::size_t member) {
  return campaign_seed(settings, round, member) ^ 0x8ebc6af09c88c6e3ULL;
}

fi::SupervisorConfig supervisor_config(std::uint64_t input) {
  fi::SupervisorConfig config = phifi::cli::RunnerConfig{}.supervisor_config();
  config.input_seed = input;
  return config;
}

fi::CampaignConfig campaign_config(std::uint64_t seed, std::size_t trials,
                                   unsigned jobs,
                                   const std::string& journal_path) {
  fi::CampaignConfig config = phifi::cli::RunnerConfig{}.campaign_config();
  config.seed = seed;
  config.trials = trials;
  config.jobs = jobs;
  config.journal_path = journal_path;
  return config;
}

double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                        usage.ru_stime.tv_usec);
  }
  return total;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  // "5" resets the high-water mark (proc(5), clear_refs). The heap is left
  // as it is: trimming it between rounds with malloc_trim(0) made CLAMR
  // campaign tallies inconsistent, for reasons not yet understood.
  std::ofstream("/proc/self/clear_refs") << "5";
}

RoundResult run_round(const Settings& settings,
                      const std::vector<Member>& members, bool fabric,
                      std::size_t trials, std::size_t round,
                      const Tracing* tracing) {
  RoundResult out;
  SpanLog* spans = tracing != nullptr ? tracing->spans : nullptr;
  ScopedSpan round_span(spans, fabric ? "round fabric" : "round local",
                        tracing != nullptr ? tracing->parent : -1);
  Tracing inner{spans, round_span.id()};
  // The program clock advances only inside set-up and campaign calls, so
  // the output checks between campaigns do not count as program time.
  double program_s = 0.0;
  reset_peak_rss();
  for (std::size_t i = 0; i < members.size(); ++i) {
    CampaignRun run =
        fabric ? run_fabric(settings, members[i], i, trials, round,
                            tracing != nullptr ? &inner : nullptr, out.errors)
               : run_local(settings, members[i], i, trials, round,
                           tracing != nullptr ? &inner : nullptr, out.errors);
    out.cpu_s += run.cpu_s;
    if (run.ci_s >= 0.0) {
      out.time_to_ci_s =
          std::max(out.time_to_ci_s, program_s + run.setup_s + run.ci_s);
    }
    program_s += run.setup_s + run.campaign_s;
    out.campaign_s += run.campaign_s;
    out.setup_s += run.setup_s;
    out.committed += run.tally.trials;
    out.attempted += run.attempted;
    out.failed += run.failed;
    out.campaigns.push_back(std::move(run));
  }
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace perfbench
