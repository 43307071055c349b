// Sec. 4.3 / 6.1 — Mitigation ablation: what the recommended hardening
// techniques actually buy on this substrate.
//
//  (a) ABFT on DGEMM: the paper argues most observed DGEMM SDCs (single,
//      line, and pairable random patterns) are ABFT-correctable in O(1),
//      while block ("square") corruption is detected but not correctable.
//      We inject faults into a live matrix multiply, classify the damage,
//      and let the Huang-Abraham checksums repair it.
//  (b) Overheads: checksum capture/verify cost vs. the kernel itself, and
//      redundant execution (the fallback for LavaMD-like codes) at 2x.
#include <chrono>
#include <cstring>

#include "analysis/spatial.hpp"
#include "bench/bench_common.hpp"
#include "core/flip_engine.hpp"
#include "core/progress.hpp"
#include "mitigation/abft.hpp"
#include "mitigation/rmt.hpp"
#include "workloads/dgemm.hpp"

int main() {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;
  util::init_log_from_env();

  constexpr std::size_t kN = 64;
  constexpr std::uint64_t kInputSeed = 77;

  // Golden copy.
  work::Dgemm golden(kN, 32);
  {
    golden.setup(kInputSeed);
    phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
    fi::ProgressTracker progress;
    progress.reset(golden.total_steps());
    golden.run(device, progress);
    progress.finish();
  }

  const std::size_t trials = bench::campaign_trials();
  std::size_t sdc = 0;
  std::size_t significant = 0;  // worst element error > 1e-6 relative
  std::size_t detected = 0;
  std::size_t fully_corrected = 0;
  std::size_t detected_uncorrectable = 0;
  analysis::PatternTally injected_patterns;
  analysis::PatternTally corrected_patterns;

  util::Rng seeds(0xabf7);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    work::Dgemm dgemm(kN, 32);
    dgemm.setup(kInputSeed);
    const mitigation::AbftGemm abft(dgemm.a(), dgemm.b(), kN);

    fi::SiteRegistry registry;
    dgemm.register_sites(registry);
    fi::FlipEngine engine(registry, fi::SelectionPolicy::kGlobalBytesWeighted);
    util::Rng rng(seeds.next());

    phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
    fi::ProgressTracker progress;
    progress.reset(dgemm.total_steps());
    const fi::FaultModel model =
        fi::kAllFaultModels[trial % fi::kAllFaultModels.size()];
    progress.arm(rng.uniform(0.02, 0.98), [&](double at) {
      engine.inject(model, rng, at);
    });
    dgemm.run(device, progress);
    progress.finish();

    const auto summarize = [&golden, &dgemm] {
      return fi::summarize_sdc(golden.output_bytes(), dgemm.output_bytes(),
                               fi::ElementType::kF64, golden.output_shape());
    };
    const fi::SdcSummary before = summarize();
    if (before.mismatched == 0) continue;
    ++sdc;
    // Sub-tolerance corruption (e.g. a low mantissa bit) is below ABFT's
    // checksum slack by construction; only significant SDCs are the
    // correction targets.
    if (!before.is_sdc_at(1e-6)) continue;
    ++significant;
    injected_patterns.add(before.pattern);

    const mitigation::AbftReport report = abft.check_and_correct(dgemm.c());
    detected += report.detected();
    detected_uncorrectable += report.uncorrectable;
    // "Corrected" = the repaired output is within checksum tolerance of the
    // golden copy everywhere (bitwise equality is not achievable when the
    // repair subtracts a float-rounded delta).
    if (!summarize().is_sdc_at(1e-6)) {
      ++fully_corrected;
      corrected_patterns.add(before.pattern);
    }
  }

  util::Table table("Sec. 6.1 - ABFT on DGEMM under fault injection");
  table.set_header({"metric", "value"});
  table.add_row({"trials", std::to_string(trials)});
  table.add_row({"SDCs produced (bitwise)", std::to_string(sdc)});
  table.add_row({"significant SDCs (>1e-6 rel)", std::to_string(significant)});
  table.add_row(
      {"detected by ABFT",
       std::to_string(detected) + " (" +
           util::fmt_percent(significant ? double(detected) / significant
                                         : 0.0) +
           ")"});
  table.add_row(
      {"fully corrected",
       std::to_string(fully_corrected) + " (" +
           util::fmt_percent(
               significant ? double(fully_corrected) / significant : 0.0) +
           ")"});
  table.add_row({"detected but uncorrectable",
                 std::to_string(detected_uncorrectable)});
  for (int p = 1; p < fi::kPatternCount; ++p) {
    const auto pattern = static_cast<fi::ErrorPattern>(p);
    table.add_row({"pattern " + std::string(fi::to_string(pattern)) +
                       " injected/corrected",
                   std::to_string(injected_patterns.count(pattern)) + " / " +
                       std::to_string(corrected_patterns.count(pattern))});
  }
  bench::print_table(table);

  // ---- Overheads ----
  util::Table overhead("Sec. 6.1 - Mitigation overheads (DGEMM n=64)");
  overhead.set_header({"configuration", "time [ms]", "overhead"});
  auto run_gemm = [&](work::Dgemm& gemm) {
    phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
    fi::ProgressTracker progress;
    progress.reset(gemm.total_steps());
    gemm.run(device, progress);
    progress.finish();
  };
  const auto t0 = Clock::now();
  constexpr int kReps = 10;
  for (int rep = 0; rep < kReps; ++rep) {
    work::Dgemm gemm(kN, 32);
    gemm.setup(kInputSeed);
    run_gemm(gemm);
  }
  const double base_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count() /
      kReps;

  const auto t1 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    work::Dgemm gemm(kN, 32);
    gemm.setup(kInputSeed);
    const mitigation::AbftGemm abft(gemm.a(), gemm.b(), kN);
    run_gemm(gemm);
    (void)abft.check_and_correct(gemm.c());
  }
  const double abft_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count() /
      kReps;

  const auto t2 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    work::Dgemm gemm(kN, 32);
    gemm.setup(kInputSeed);
    run_gemm(gemm);
    work::Dgemm gemm2(kN, 32);  // redundant execution + compare
    gemm2.setup(kInputSeed);
    run_gemm(gemm2);
    (void)std::memcmp(gemm.output_bytes().data(),
                      gemm2.output_bytes().data(),
                      gemm.output_bytes().size());
  }
  const double rmt_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t2).count() /
      kReps;

  overhead.add_row({"plain DGEMM", util::fmt(base_ms, 2), "1.00x"});
  overhead.add_row({"DGEMM + ABFT checksums", util::fmt(abft_ms, 2),
                    util::fmt(abft_ms / base_ms, 2) + "x"});
  overhead.add_row({"DGEMM duplicated (RMT-style)", util::fmt(rmt_ms, 2),
                    util::fmt(rmt_ms / base_ms, 2) + "x"});
  bench::print_table(overhead);
  return 0;
}
