// Per-layer probes of the traced run, each timing calls into one layer
// from outside: the native kernel (no fork), the one-slot supervisor, and
// the scheduler's scaling from jobs=1 to jobs=nproc.
#include "bench.hpp"
#include "core/progress.hpp"
#include "phi/device.hpp"

namespace perfbench {

namespace fi = phifi::fi;

namespace {

struct ProbeSizes {
  std::size_t kernel_reps;
  std::size_t one_slot_trials;
  std::size_t scaling_trials;
};

ProbeSizes probe_sizes(const Settings& settings) {
  if (settings.smoke) return {1, 3, 2 * settings.jobs};
  return {5, 40, 12 * settings.jobs};
}

}  // namespace

ProbeResult run_probes(const Settings& settings, SpanLog* spans) {
  const ProbeSizes sizes = probe_sizes(settings);
  const std::vector<Member>& members = settings.set->members;
  ProbeResult out;
  ScopedSpan probes_span(spans, "probes", -1);

  // workloads/ + phi/: native setup and run on an emulated device.
  std::vector<double> native_ms(members.size());
  {
    ScopedSpan span(spans, "probe.kernel", probes_span.id());
    const fi::SupervisorConfig config = supervisor_config(0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      std::vector<double> setup_ms;
      std::vector<double> run_ms;
      for (std::size_t rep = 0; rep < sizes.kernel_reps; ++rep) {
        auto workload = members[i].factory();
        const auto t0 = Clock::now();
        workload->setup(input_seed(settings, 0, i));
        const auto t1 = Clock::now();
        phifi::phi::Device device(config.device_spec,
                                  config.device_os_threads);
        fi::ProgressTracker progress;
        progress.reset(workload->total_steps());
        const auto t2 = Clock::now();
        workload->run(device, progress);
        progress.finish();
        const auto t3 = Clock::now();
        setup_ms.push_back(1000.0 * seconds_between(t0, t1));
        run_ms.push_back(1000.0 * seconds_between(t2, t3));
      }
      const double setup = median(setup_ms);
      const double run = median(run_ms);
      native_ms[i] = setup + run;
      out.kernel_setup_ms += setup / static_cast<double>(members.size());
      out.kernel_run_ms += run / static_cast<double>(members.size());
    }
  }

  // core/ supervisor: one-slot run_trial against native setup + run.
  {
    ScopedSpan span(spans, "probe.one_slot", probes_span.id());
    std::vector<double> all_ms;
    const fi::CampaignConfig defaults = campaign_config(0, 0, 1, "");
    for (std::size_t i = 0; i < members.size(); ++i) {
      fi::TrialSupervisor supervisor(
          members[i].factory, supervisor_config(input_seed(settings, 0, i)));
      supervisor.prepare_golden();
      const phifi::phi::CounterSnapshot& counters =
          supervisor.golden_counters();
      out.kernel_flops += static_cast<double>(counters.flops);
      out.kernel_bytes += static_cast<double>(counters.bytes_total());
      std::vector<double> member_ms;
      for (std::size_t t = 0; t < sizes.one_slot_trials; ++t) {
        fi::TrialConfig trial;
        trial.trial_seed = fi::trial_seed_for(campaign_seed(settings, 0, i), t);
        trial.model = defaults.models[t % defaults.models.size()];
        const auto t0 = Clock::now();
        (void)supervisor.run_trial(trial);
        member_ms.push_back(1000.0 * seconds_between(t0, Clock::now()));
      }
      all_ms.insert(all_ms.end(), member_ms.begin(), member_ms.end());
      out.overhead_x += median(member_ms) / native_ms[i] /
                        static_cast<double>(members.size());
    }
    out.trial_p50_ms = percentile(all_ms, 50.0);
    out.trial_p99_ms = percentile(all_ms, 99.0);
  }

  // core/ scheduler: the same short prefix at jobs=1 and jobs=nproc.
  {
    ScopedSpan span(spans, "probe.scaling", probes_span.id());
    double serial_s = 0.0;
    double parallel_s = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      fi::TrialSupervisor supervisor(
          members[i].factory, supervisor_config(input_seed(settings, 0, i)));
      supervisor.prepare_golden();
      const auto timed_run = [&](unsigned jobs) {
        const fi::CampaignConfig config = campaign_config(
            campaign_seed(settings, 0, i), sizes.scaling_trials, jobs, "");
        const auto t0 = Clock::now();
        (void)fi::Campaign(supervisor, config).run();
        return seconds_between(t0, Clock::now());
      };
      serial_s += timed_run(1);
      parallel_s += timed_run(settings.jobs);
    }
    out.scaling_eff = serial_s / parallel_s / settings.jobs;
  }
  return out;
}

}  // namespace perfbench
