// Functional correctness and determinism of the six benchmarks, checked
// against independent straight-line reference implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/progress.hpp"
#include "workloads/clamr_workload.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/hotspot.hpp"
#include "workloads/lavamd.hpp"
#include "workloads/lud.hpp"
#include "workloads/nw.hpp"
#include "workloads/registry.hpp"

namespace phifi::work {
namespace {

phi::Device make_device() {
  return phi::Device(phi::DeviceSpec::knights_corner_3120a(), 1);
}

std::vector<std::byte> run_once(fi::Workload& workload, std::uint64_t seed) {
  workload.setup(seed);
  phi::Device device = make_device();
  fi::ProgressTracker progress;
  progress.reset(workload.total_steps());
  workload.run(device, progress);
  progress.finish();
  EXPECT_GE(progress.fraction(), 1.0) << workload.name()
                                      << " under-ticked progress";
  const auto bytes = workload.output_bytes();
  return {bytes.begin(), bytes.end()};
}

class AllWorkloadsTest : public ::testing::TestWithParam<WorkloadInfo> {};

TEST_P(AllWorkloadsTest, GoldenIsDeterministic) {
  auto w1 = GetParam().factory();
  auto w2 = GetParam().factory();
  const auto out1 = run_once(*w1, 42);
  const auto out2 = run_once(*w2, 42);
  ASSERT_EQ(out1.size(), out2.size());
  EXPECT_EQ(std::memcmp(out1.data(), out2.data(), out1.size()), 0);
}

TEST_P(AllWorkloadsTest, DifferentSeedsDifferentOutputs) {
  auto w1 = GetParam().factory();
  auto w2 = GetParam().factory();
  const auto out1 = run_once(*w1, 1);
  const auto out2 = run_once(*w2, 2);
  ASSERT_EQ(out1.size(), out2.size());
  EXPECT_NE(std::memcmp(out1.data(), out2.data(), out1.size()), 0);
}

TEST_P(AllWorkloadsTest, OutputShapeMatchesBytes) {
  auto workload = GetParam().factory();
  workload->setup(7);
  const util::Shape shape = workload->output_shape();
  EXPECT_EQ(shape.size() * element_size(workload->output_type()),
            workload->output_bytes().size());
}

TEST_P(AllWorkloadsTest, RegistersGlobalAndWorkerSites) {
  auto workload = GetParam().factory();
  workload->setup(7);
  fi::SiteRegistry registry;
  workload->register_sites(registry);
  EXPECT_FALSE(registry.frame_sites(fi::FrameKind::kGlobal).empty());
  EXPECT_GT(registry.worker_frame_count(), 0u);
  EXPECT_GT(registry.total_bytes(), 0u);
  // Sites must alias live memory, including the whole output buffer.
  const auto output = workload->output_bytes();
  bool output_covered = false;
  for (const auto& site : registry.sites()) {
    if (site.data <= output.data() &&
        site.data + site.bytes >= output.data() + output.size()) {
      output_covered = true;
    }
  }
  EXPECT_TRUE(output_covered) << "output buffer not registered as a site";
}

TEST_P(AllWorkloadsTest, TimeWindowsMatchPaper) {
  auto workload = GetParam().factory();
  const std::string_view name = workload->name();
  const unsigned windows = workload->time_windows();
  if (name == "CLAMR") {
    EXPECT_EQ(windows, 9u);
  }
  if (name == "DGEMM" || name == "HotSpot") {
    EXPECT_EQ(windows, 5u);
  }
  if (name == "LUD" || name == "NW") {
    EXPECT_EQ(windows, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllWorkloadsTest, ::testing::ValuesIn(all_workloads()),
    [](const ::testing::TestParamInfo<WorkloadInfo>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Registry, FindsAllSixByName) {
  EXPECT_EQ(all_workloads().size(), 6u);
  for (const auto& info : all_workloads()) {
    EXPECT_EQ(find_workload(info.name), info.factory);
  }
  EXPECT_EQ(find_workload("nope"), nullptr);
}

TEST(DgemmTest, MatchesNaiveReference) {
  Dgemm dgemm(24, 16);
  run_once(dgemm, 5);
  const std::size_t n = dgemm.n();
  const auto a = dgemm.a();
  const auto b = dgemm.b();
  const auto c = std::span<const double>(
      reinterpret_cast<const double*>(dgemm.output_bytes().data()), n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double expected = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        expected += a[i * n + k] * b[k * n + j];
      }
      ASSERT_NEAR(c[i * n + j], expected, 1e-9)
          << "element (" << i << "," << j << ")";
    }
  }
}

TEST(LudTest, LTimesUReconstructsOriginal) {
  Lud lud(32, 16);
  run_once(lud, 9);
  const std::size_t n = lud.n();
  const auto lu = lud.matrix();
  const auto original = lud.original();
  // Reconstruct A = L * U from the packed in-place factors.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      const std::size_t limit = std::min(i, j);
      for (std::size_t k = 0; k < limit; ++k) {
        sum += static_cast<double>(lu[i * n + k]) * lu[k * n + j];
      }
      // L has unit diagonal: if i <= j the diagonal term is U itself.
      sum += (i <= j) ? lu[i * n + j]
                      : static_cast<double>(lu[i * n + j]) * lu[j * n + j];
      ASSERT_NEAR(sum, original[i * n + j], 1e-2)
          << "element (" << i << "," << j << ")";
    }
  }
}

TEST(NwTest, MatchesReferenceDp) {
  Nw nw(48, 16);
  run_once(nw, 3);
  const std::size_t n = nw.length() + 1;
  const auto score = nw.score();
  // Invariants: boundary rows follow gap penalties; interior cells obey the
  // DP recurrence relative to their neighbors.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(score[i * n], -static_cast<std::int32_t>(i) * 2);
    ASSERT_EQ(score[i], -static_cast<std::int32_t>(i) * 2);
  }
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) {
      const std::int32_t v = score[i * n + j];
      const std::int32_t up = score[(i - 1) * n + j] - 2;
      const std::int32_t left = score[i * n + (j - 1)] - 2;
      ASSERT_GE(v, up);
      ASSERT_GE(v, left);
      // v equals one of the three DP options; check against max bound.
      ASSERT_LE(std::max(up, left), v);
    }
  }
}

TEST(HotspotTest, ConvergesTowardEquilibriumAndStaysFinite) {
  HotSpot hotspot(32, 32, 40, 16);
  run_once(hotspot, 11);
  const auto temps = hotspot.temperatures();
  for (float t : temps) {
    ASSERT_TRUE(std::isfinite(t));
    // Physical range: between ambient-ish and a loose ceiling.
    ASSERT_GT(t, 0.0f);
    ASSERT_LT(t, 1000.0f);
  }
}

TEST(HotspotTest, ZeroPowerDecaysTowardAmbient) {
  // With more iterations the grid must move toward the ambient sink.
  HotSpot short_run(16, 16, 4, 8);
  HotSpot long_run(16, 16, 200, 8);
  run_once(short_run, 13);
  run_once(long_run, 13);
  double short_mean = 0.0;
  double long_mean = 0.0;
  for (float t : short_run.temperatures()) short_mean += t;
  for (float t : long_run.temperatures()) long_mean += t;
  short_mean /= 256.0;
  long_mean /= 256.0;
  // Ambient is 80; initial is ~323. Longer run must be closer to ambient.
  EXPECT_LT(long_mean, short_mean);
}

TEST(LavaMdTest, MatchesSerialReference) {
  LavaMd lava(2, 8, 16);
  run_once(lava, 17);
  // Independent O(N^2-with-cutoff) reference over the same inputs.
  LavaMd ref_source(2, 8, 16);
  ref_source.setup(17);
  fi::SiteRegistry registry;
  ref_source.register_sites(registry);
  // Pull positions/charges back out of the registered sites.
  std::span<const double> rv;
  std::span<const double> qv;
  for (const auto& site : registry.sites()) {
    if (site.name == "positions") {
      rv = {reinterpret_cast<const double*>(site.data), site.bytes / 8};
    } else if (site.name == "charges") {
      qv = {reinterpret_cast<const double*>(site.data), site.bytes / 8};
    }
  }
  ASSERT_FALSE(rv.empty());
  ASSERT_FALSE(qv.empty());

  const std::size_t nb = 2;
  const std::size_t ppb = 8;
  const auto forces = lava.forces();
  const double a2 = 0.5 * 0.5;
  for (std::size_t i = 0; i < lava.particle_count(); ++i) {
    const std::size_t box = i / ppb;
    const std::size_t bx = box % nb;
    const std::size_t by = (box / nb) % nb;
    const std::size_t bz = box / (nb * nb);
    double fx = 0.0;
    double fy = 0.0;
    double fz = 0.0;
    double fw = 0.0;
    for (std::size_t j = 0; j < lava.particle_count(); ++j) {
      const std::size_t jbox = j / ppb;
      const std::size_t jbx = jbox % nb;
      const std::size_t jby = (jbox / nb) % nb;
      const std::size_t jbz = jbox / (nb * nb);
      const auto near = [](std::size_t a, std::size_t b) {
        return a == b || a + 1 == b || b + 1 == a;
      };
      if (!near(bx, jbx) || !near(by, jby) || !near(bz, jbz)) continue;
      const double dx = rv[i * 4 + 0] - rv[j * 4 + 0];
      const double dy = rv[i * 4 + 1] - rv[j * 4 + 1];
      const double dz = rv[i * 4 + 2] - rv[j * 4 + 2];
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double vij = std::exp(-a2 * d2);
      const double fs = (rv[i * 4 + 3] + rv[j * 4 + 3]) * 2.0 * vij;
      fw += qv[j] * vij;
      fx += qv[j] * fs * dx;
      fy += qv[j] * fs * dy;
      fz += qv[j] * fs * dz;
    }
    ASSERT_NEAR(forces[i * 4 + 0], fx, 1e-9);
    ASSERT_NEAR(forces[i * 4 + 1], fy, 1e-9);
    ASSERT_NEAR(forces[i * 4 + 2], fz, 1e-9);
    ASSERT_NEAR(forces[i * 4 + 3], fw, 1e-9);
  }
}

TEST(ClamrTest, VolumeApproximatelyConserved) {
  clamr::MeshParams params;
  Clamr clamr_workload(params, 18, 16);
  run_once(clamr_workload, 21);
  const auto& mesh = clamr_workload.mesh();
  // Initial volume: base height 1 everywhere plus the Gaussian hump.
  // Lax-Friedrichs + reflective-ish boundaries keep total volume near the
  // initial value (coarsening averages conserve it exactly).
  const double volume = mesh.total_volume();
  const double fine = params.fine_size();
  const double base_volume = fine * fine;  // h = 1 background
  EXPECT_GT(volume, base_volume * 0.95);
  EXPECT_LT(volume, base_volume * 1.30);
}

TEST(ClamrTest, MeshRefinesAroundWaveFront) {
  clamr::MeshParams params;
  Clamr clamr_workload(params, 12, 16);
  clamr_workload.setup(23);
  // The dry run recorded cell counts; refinement must kick in (more cells
  // than the base grid) at some step.
  std::uint64_t max_cells = 0;
  for (std::uint64_t c : clamr_workload.step_cells()) {
    max_cells = std::max(max_cells, c);
  }
  EXPECT_GT(max_cells, static_cast<std::uint64_t>(params.base_size) *
                           params.base_size);
}

TEST(ClamrTest, ProgressTotalCoversAllPhases) {
  Clamr clamr_workload({}, 10, 16);
  clamr_workload.setup(25);
  // Compute-phase ticks alone are one per cell per step; the sort/tree/
  // regrid phase ticks add roughly half that again.
  std::uint64_t compute_ticks = 0;
  for (std::uint64_t c : clamr_workload.step_cells()) compute_ticks += c;
  EXPECT_GT(clamr_workload.total_steps(), compute_ticks);
  EXPECT_LT(clamr_workload.total_steps(), compute_ticks * 2);
}


TEST(ClamrTest, MeshStaysGradedThroughRun) {
  clamr::MeshParams params;
  Clamr clamr_workload(params, 18, 16);
  run_once(clamr_workload, 29);
  const clamr::AmrMesh& mesh = clamr_workload.mesh();
  clamr::Quadtree tree(params.fine_size(),
                       static_cast<std::size_t>(params.fine_size()) *
                           params.fine_size());
  mesh.build_tree(tree);
  EXPECT_TRUE(mesh.is_graded(tree));
}

}  // namespace
}  // namespace phifi::work
