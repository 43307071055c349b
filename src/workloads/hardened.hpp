// Hardened benchmark variants — the paper's future work (Sec. 7: "we plan
// to implement the mitigation techniques based on the radiation and fault
// injection analysis, then validate them with ... fault injection
// campaigns"), implemented for the three benchmarks whose Sec. 6 analyses
// give the clearest prescriptions:
//
//   * DGEMM + ABFT  — Huang-Abraham checksums captured before the multiply;
//     after the kernel the product is audited and single/line/pairable
//     corruption is repaired in place. Unrepairable damage raises a clean
//     abort, converting would-be SDCs into detected errors (DUEs).
//   * HotSpot + DWC — the RC-model constants are TMR-protected and the
//     replicated per-thread control bounds are refreshed (scrubbed) every
//     iteration, targeting exactly the "constants and control variables"
//     criticality the paper reports.
//   * CLAMR hardened — bounds-checked Tree descent, a post-Sort audit that
//     re-sorts on inconsistency, and rank clamping in the solver sweep,
//     the Sec. 6.1 recommendations for the Sort/Tree portions.
//
// The added protection state (checksums, TMR copies) is registered as
// injection sites like everything else: hardening hardware also gets hit.
#pragma once

#include <memory>
#include <optional>

#include "mitigation/abft.hpp"
#include "mitigation/dwc.hpp"
#include "workloads/clamr_workload.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/hotspot.hpp"
#include "workloads/lavamd.hpp"

namespace phifi::work {

/// Raised by hardened variants when protection detects unrepairable
/// corruption; the trial child converts it into a clean abort (DUE).
class HardeningDetected : public std::runtime_error {
 public:
  explicit HardeningDetected(const std::string& what)
      : std::runtime_error("hardening detected unrecoverable fault: " +
                           what) {}
};

class AbftDgemm : public Dgemm {
 public:
  explicit AbftDgemm(std::size_t n = 96, unsigned workers = kKncWorkers);

  void setup(std::uint64_t input_seed) override;
  void run(phi::Device& device, fi::ProgressTracker& progress) override;
  void register_sites(fi::SiteRegistry& registry) override;

  /// Report of the last run's audit (empty before the first run).
  [[nodiscard]] const std::optional<mitigation::AbftReport>& last_report()
      const {
    return last_report_;
  }

 private:
  std::unique_ptr<mitigation::AbftGemm> abft_;
  std::optional<mitigation::AbftReport> last_report_;
};

/// LavaMD under redundant execution — Sec. 6's verdict that LavaMD's
/// exposed memory is too large for selective hardening, leaving "a generic
/// technique, like modular replication ... which may consume up to twice
/// the execution time". The kernel runs twice; a mismatch between the two
/// force arrays is a detected error (clean abort -> DUE instead of SDC).
/// Input-array corruption that precedes both runs is computed identically
/// twice and stays undetected — the known blind spot of replication.
class RmtLavaMd : public LavaMd {
 public:
  explicit RmtLavaMd(std::size_t boxes_per_dim = 3,
                     std::size_t particles_per_box = 16,
                     unsigned workers = kKncWorkers);

  /// Sizes the first pass's copy, so a run allocates nothing.
  void setup(std::uint64_t input_seed) override;
  void run(phi::Device& device, fi::ProgressTracker& progress) override;
  /// The first pass's forces are read by the compare after the second
  /// pass and no site holds them: they are registered as state.
  void register_sites(fi::SiteRegistry& registry) override;
  /// Both executions tick progress, so the denominator doubles.
  [[nodiscard]] std::uint64_t total_steps() const override {
    return 2 * LavaMd::total_steps();
  }
  [[nodiscard]] std::span<const double> first_pass() const {
    return first_pass_;
  }

 private:
  std::vector<double> first_pass_;
};

std::unique_ptr<fi::Workload> make_abft_dgemm();
std::unique_ptr<fi::Workload> make_hardened_hotspot();
std::unique_ptr<fi::Workload> make_hardened_clamr();
std::unique_ptr<fi::Workload> make_rmt_lavamd();

}  // namespace phifi::work
