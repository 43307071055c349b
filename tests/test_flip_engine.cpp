#include "core/flip_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/injection_site.hpp"

namespace phifi::fi {
namespace {

class FlipEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    big_.resize(4096, 1.0f);
    small_.resize(4, 1.0f);
    for (auto& block : worker_vars_) block = 7;
    registry_.add_global_array<float>("big_matrix", "matrix",
                                      std::span<float>(big_));
    registry_.add_global_array<float>("small_vec", "constant",
                                      std::span<float>(small_));
    for (int w = 0; w < 4; ++w) {
      registry_.add_worker(
          w, "i", "control",
          {reinterpret_cast<std::byte*>(&worker_vars_[w]), 8}, 8);
    }
  }

  std::vector<float> big_;
  std::vector<float> small_;
  std::int64_t worker_vars_[4];
  SiteRegistry registry_;
};

TEST_F(FlipEngineTest, RegistryBasics) {
  EXPECT_EQ(registry_.size(), 6u);
  EXPECT_EQ(registry_.worker_frame_count(), 4u);
  EXPECT_EQ(registry_.frame_sites(FrameKind::kGlobal).size(), 2u);
  EXPECT_EQ(registry_.frame_sites(FrameKind::kWorker, 2).size(), 1u);
  EXPECT_EQ(registry_.total_bytes(), 4096u * 4 + 16 + 32);
}

TEST_F(FlipEngineTest, InjectProducesCompleteRecord) {
  FlipEngine engine(registry_, SelectionPolicy::kCarolFi);
  util::Rng rng(3);
  const InjectionRecord record =
      engine.inject(FaultModel::kSingle, rng, 0.25);
  EXPECT_TRUE(record.injected);
  EXPECT_EQ(record.model, FaultModel::kSingle);
  EXPECT_DOUBLE_EQ(record.progress_fraction, 0.25);
  EXPECT_GT(std::strlen(record.site_name), 0u);
  EXPECT_GT(std::strlen(record.category), 0u);
  EXPECT_LT(record.site_index, registry_.size());
}

TEST_F(FlipEngineTest, SingleInjectChangesExactlyOneSite) {
  FlipEngine engine(registry_, SelectionPolicy::kBytesWeighted);
  util::Rng rng(9);
  const InjectionRecord record =
      engine.inject(FaultModel::kSingle, rng, 0.5);
  ASSERT_TRUE(record.injected);
  // Verify the recorded site actually changed.
  int changed_sites = 0;
  for (float v : big_) changed_sites += (v != 1.0f);
  for (float v : small_) changed_sites += (v != 1.0f);
  for (std::int64_t v : worker_vars_) changed_sites += (v != 7);
  EXPECT_EQ(changed_sites, 1);
}

TEST_F(FlipEngineTest, CarolFiPolicyHitsWorkerFramesOften) {
  FlipEngine engine(registry_, SelectionPolicy::kCarolFi);
  util::Rng rng(11);
  int worker_hits = 0;
  constexpr int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    const InjectionRecord record =
        engine.inject(FaultModel::kSingle, rng, 0.5);
    worker_hits += record.frame == FrameKind::kWorker;
  }
  // Thread->frame selection gives the worker frame ~50% despite it being a
  // tiny fraction of total bytes (the paper's replicated-control effect).
  EXPECT_NEAR(worker_hits, kTrials / 2, kTrials * 0.07);
}

TEST_F(FlipEngineTest, BytesWeightedFavorsBigSites) {
  FlipEngine engine(registry_, SelectionPolicy::kBytesWeighted);
  util::Rng rng(13);
  std::map<std::string, int> hits;
  constexpr int kTrials = 3000;
  for (int i = 0; i < kTrials; ++i) {
    const InjectionRecord record =
        engine.inject(FaultModel::kSingle, rng, 0.5);
    ++hits[record.site_name];
  }
  // big_matrix is ~99.7% of the bytes.
  EXPECT_GT(hits["big_matrix"], kTrials * 0.98);
}

TEST_F(FlipEngineTest, GlobalOnlyNeverPicksWorkerFrames) {
  FlipEngine engine(registry_, SelectionPolicy::kGlobalBytesWeighted);
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const InjectionRecord record =
        engine.inject(FaultModel::kSingle, rng, 0.5);
    EXPECT_EQ(record.frame, FrameKind::kGlobal);
  }
}

TEST_F(FlipEngineTest, WorkerOnlyAlwaysPicksWorkerFrames) {
  FlipEngine engine(registry_, SelectionPolicy::kWorkerFrameOnly);
  util::Rng rng(19);
  std::map<int, int> worker_hits;
  for (int i = 0; i < 2000; ++i) {
    const InjectionRecord record =
        engine.inject(FaultModel::kSingle, rng, 0.5);
    EXPECT_EQ(record.frame, FrameKind::kWorker);
    ++worker_hits[record.worker];
  }
  // All four workers get hit.
  EXPECT_EQ(worker_hits.size(), 4u);
}

TEST(FlipEngineEmpty, EmptyRegistryDoesNotInject) {
  SiteRegistry registry;
  FlipEngine engine(registry, SelectionPolicy::kCarolFi);
  util::Rng rng(1);
  const InjectionRecord record = engine.inject(FaultModel::kSingle, rng, 0.5);
  EXPECT_FALSE(record.injected);
}

TEST(FlipEngineNames, PolicyNames) {
  EXPECT_EQ(to_string(SelectionPolicy::kCarolFi), "carol-fi");
  EXPECT_EQ(to_string(SelectionPolicy::kBytesWeighted), "bytes-weighted");
  EXPECT_EQ(to_string(SelectionPolicy::kGlobalBytesWeighted), "global-bytes");
  EXPECT_EQ(to_string(SelectionPolicy::kWorkerFrameOnly), "worker-frame");
}

TEST(SiteRegistryTest, ElementAccess) {
  SiteRegistry registry;
  std::vector<double> data(10, 1.0);
  registry.add_global_array<double>("d", "matrix", std::span<double>(data));
  const InjectionSite& site = registry.site(0);
  EXPECT_EQ(site.element_count(), 10u);
  EXPECT_EQ(site.element_size, 8u);
  auto element = site.element(3);
  EXPECT_EQ(static_cast<void*>(element.data()),
            static_cast<void*>(&data[3]));
}

TEST(SiteRegistryTest, StateIsDigestedButNeverInjected) {
  SiteRegistry registry;
  std::vector<double> data(10, 1.0);
  std::vector<double> saved(6, 2.0);
  registry.add_global_array<double>("d", "matrix", std::span<double>(data));
  registry.add_state("saved", std::as_bytes(std::span<const double>(saved)));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.total_bytes(), data.size() * sizeof(double));
  EXPECT_EQ(registry.frame_sites(FrameKind::kGlobal).size(), 1u);
  ASSERT_EQ(registry.state().size(), 1u);
  EXPECT_EQ(registry.state()[0].bytes, saved.size() * sizeof(double));

  const std::uint64_t before = registry.state_digest();
  saved[4] = 3.0;
  EXPECT_NE(registry.state_digest(), before);
  saved[4] = 2.0;
  EXPECT_EQ(registry.state_digest(), before);

  FlipEngine engine(registry, SelectionPolicy::kCarolFi);
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(engine.inject(FaultModel::kRandom, rng, 0.5).site_index, 0u);
  }
  EXPECT_EQ(registry.state_digest(), before);
}

TEST(StateDigest, EverySingleBitFlipOfEveryWordChangesIt) {
  // Every step is a bijection of a lane's state, so a difference confined
  // to one word cannot collide — including the zero-padded tail word.
  for (const std::size_t size : {std::size_t{8}, std::size_t{61},
                                 std::size_t{96}}) {
    std::vector<std::byte> buffer(size);
    for (std::size_t i = 0; i < size; ++i) {
      buffer[i] = static_cast<std::byte>(i * 37 + 11);
    }
    const std::uint64_t clean = state_digest(buffer);
    EXPECT_EQ(state_digest(buffer), clean);
    for (std::size_t bit = 0; bit < size * 8; ++bit) {
      buffer[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      EXPECT_NE(state_digest(buffer), clean) << "size " << size << " bit "
                                             << bit;
      buffer[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
  }
}

}  // namespace
}  // namespace phifi::fi
