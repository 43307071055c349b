#include "core/injection_site.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace phifi::fi {

namespace {

constexpr std::uint64_t kOddMultiplier = 0x9e3779b97f4a7c15ULL;

/// One bijective step of a lane: multiply by an odd constant, xor-shift.
std::uint64_t mix(std::uint64_t lane) {
  lane *= kOddMultiplier;
  return lane ^ (lane >> 32);
}

std::uint64_t load_word(const std::byte* at, std::size_t bytes = 8) {
  std::uint64_t word = 0;
  std::memcpy(&word, at, bytes);
  return word;
}

}  // namespace

std::uint64_t state_digest(std::span<const std::byte> bytes) {
  std::uint64_t lanes[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                            0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  const std::byte* data = bytes.data();
  const std::size_t words = bytes.size() / 8;
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      lanes[lane] = mix(lanes[lane] ^ load_word(data + (w + lane) * 8));
    }
  }
  for (; w < words; ++w) {
    lanes[w % 4] = mix(lanes[w % 4] ^ load_word(data + w * 8));
  }
  if (const std::size_t tail = bytes.size() % 8; tail != 0) {
    lanes[w % 4] = mix(lanes[w % 4] ^ load_word(data + w * 8, tail));
  }
  std::uint64_t digest = mix(bytes.size());
  for (const std::uint64_t lane : lanes) digest = mix(digest ^ lane);
  return digest;
}

void SiteRegistry::add_global(std::string name, std::string category,
                              std::span<std::byte> bytes,
                              std::size_t element_size) {
  assert(!bytes.empty());
  assert(element_size > 0 && bytes.size() % element_size == 0);
  sites_.push_back(InjectionSite{.name = std::move(name),
                                 .category = std::move(category),
                                 .frame = FrameKind::kGlobal,
                                 .worker = -1,
                                 .data = bytes.data(),
                                 .bytes = bytes.size(),
                                 .element_size = element_size});
}

void SiteRegistry::add_worker(int worker, std::string name,
                              std::string category, std::span<std::byte> bytes,
                              std::size_t element_size) {
  assert(worker >= 0);
  assert(!bytes.empty());
  assert(element_size > 0 && bytes.size() % element_size == 0);
  sites_.push_back(InjectionSite{.name = std::move(name),
                                 .category = std::move(category),
                                 .frame = FrameKind::kWorker,
                                 .worker = worker,
                                 .data = bytes.data(),
                                 .bytes = bytes.size(),
                                 .element_size = element_size});
}

void SiteRegistry::add_state(std::string name,
                             std::span<const std::byte> bytes) {
  assert(!bytes.empty());
  state_.push_back(StateSpan{
      .name = std::move(name), .data = bytes.data(), .bytes = bytes.size()});
}

std::uint64_t SiteRegistry::state_digest() const {
  // Each span's digest is one word of the fold, so a difference confined
  // to one word of one span still cannot collide.
  std::uint64_t digest = mix(state_.size());
  for (const StateSpan& span : state_) {
    digest = mix(digest ^ fi::state_digest({span.data, span.bytes}));
  }
  return digest;
}

std::size_t SiteRegistry::worker_frame_count() const {
  int max_worker = -1;
  for (const auto& site : sites_) {
    if (site.frame == FrameKind::kWorker) {
      max_worker = std::max(max_worker, site.worker);
    }
  }
  return static_cast<std::size_t>(max_worker + 1);
}

std::vector<std::size_t> SiteRegistry::frame_sites(FrameKind frame,
                                                   int worker) const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const auto& site = sites_[i];
    if (site.frame != frame) continue;
    if (frame == FrameKind::kWorker && site.worker != worker) continue;
    indices.push_back(i);
  }
  return indices;
}

std::size_t SiteRegistry::frame_sites_into(FrameKind frame, int worker,
                                           std::span<std::size_t> out) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < sites_.size() && count < out.size(); ++i) {
    const auto& site = sites_[i];
    if (site.frame != frame) continue;
    if (frame == FrameKind::kWorker && site.worker != worker) continue;
    out[count++] = i;
  }
  return count;
}

std::size_t SiteRegistry::total_bytes() const {
  std::size_t total = 0;
  for (const auto& site : sites_) total += site.bytes;
  return total;
}

}  // namespace phifi::fi
