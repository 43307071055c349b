#include "workloads/hardened.hpp"

#include <algorithm>
#include <cstring>

namespace phifi::work {

AbftDgemm::AbftDgemm(std::size_t n, unsigned workers) : Dgemm(n, workers) {
  set_name("DGEMM+ABFT");
}

void AbftDgemm::setup(std::uint64_t input_seed) {
  Dgemm::setup(input_seed);
  // Checksums are captured from the pristine inputs, before any fault can
  // land; this is the O(n^2) encode step of Huang-Abraham.
  abft_ = std::make_unique<mitigation::AbftGemm>(a(), b(), n());
  last_report_.reset();
}

void AbftDgemm::run(phi::Device& device, fi::ProgressTracker& progress) {
  Dgemm::run(device, progress);
  last_report_ = abft_->check_and_correct(c());
  if (last_report_->uncorrectable) {
    // Detection without correction: abort cleanly, converting a silent
    // corruption into a detected error. A real deployment would trigger
    // recomputation here.
    throw HardeningDetected("ABFT checksum mismatch not correctable");
  }
}

void AbftDgemm::register_sites(fi::SiteRegistry& registry) {
  Dgemm::register_sites(registry);
  registry.add_global_array<double>("abft_row_sums", "constant",
                                    abft_->mutable_row_sums());
  registry.add_global_array<double>("abft_col_sums", "constant",
                                    abft_->mutable_col_sums());
}

RmtLavaMd::RmtLavaMd(std::size_t boxes_per_dim,
                     std::size_t particles_per_box, unsigned workers)
    : LavaMd(boxes_per_dim, particles_per_box, workers) {
  set_name("LavaMD+RMT");
}

void RmtLavaMd::setup(std::uint64_t input_seed) {
  LavaMd::setup(input_seed);
  first_pass_.assign(LavaMd::forces().size(), 0.0);
}

void RmtLavaMd::run(phi::Device& device, fi::ProgressTracker& progress) {
  LavaMd::run(device, progress);
  const auto forces = LavaMd::forces();
  std::copy(forces.begin(), forces.end(), first_pass_.begin());
  LavaMd::run(device, progress);
  const auto second = LavaMd::forces();
  if (std::memcmp(first_pass_.data(), second.data(),
                  second.size() * sizeof(double)) != 0) {
    throw HardeningDetected("redundant LavaMD executions disagree");
  }
}

void RmtLavaMd::register_sites(fi::SiteRegistry& registry) {
  LavaMd::register_sites(registry);
  registry.add_state("first_pass_forces",
                     std::as_bytes(std::span<const double>(first_pass_)));
}

std::unique_ptr<fi::Workload> make_abft_dgemm() {
  return std::make_unique<AbftDgemm>();
}

std::unique_ptr<fi::Workload> make_hardened_hotspot() {
  return std::make_unique<HotSpot>(96, 96, 48, kKncWorkers,
                                   /*hardened=*/true);
}

std::unique_ptr<fi::Workload> make_rmt_lavamd() {
  return std::make_unique<RmtLavaMd>();
}

std::unique_ptr<fi::Workload> make_hardened_clamr() {
  return std::make_unique<Clamr>(clamr::MeshParams{}, 27, kKncWorkers,
                                 /*hardened=*/true);
}

}  // namespace phifi::work
