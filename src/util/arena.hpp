// Bump arena for per-trial scratch allocations.
//
// The trial hot loop (site selection, phase scratch) historically allocated
// short-lived vectors on every injection. Each trial child is a fresh COW
// image whose heap metadata is shared with its fork-server template until
// first touch — every malloc both costs time and dirties pages. A bump
// arena turns that into pointer arithmetic over one buffer allocated once
// (in the template, so children inherit it) and rewound per trial.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

namespace phifi::util {

/// Fixed-capacity bump allocator. Not thread-safe: one arena per trial
/// child (which is single-threaded up to the workload run).
class BumpArena {
 public:
  explicit BumpArena(std::size_t capacity)
      : buffer_(capacity > 0 ? std::make_unique<std::byte[]>(capacity)
                             : nullptr),
        capacity_(capacity) {}

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// Returns `size` bytes aligned to `align` (a power of two), or nullptr
  /// when the arena is exhausted — callers fall back to the heap, so an
  /// undersized arena costs speed, never correctness.
  void* allocate(std::size_t size, std::size_t align) {
    const std::size_t offset = (used_ + (align - 1)) & ~(align - 1);
    if (offset + size > capacity_ || offset + size < offset) return nullptr;
    used_ = offset + size;
    return buffer_.get() + offset;
  }

  /// Typed allocation: a span of `count` default-constructible Ts, or an
  /// empty span when exhausted.
  template <typename T>
  [[nodiscard]] std::span<T> allocate_span(std::size_t count) {
    void* p = allocate(count * sizeof(T), alignof(T));
    if (p == nullptr) return {};
    return {static_cast<T*>(p), count};
  }

  /// Frees everything at once; previously returned pointers become invalid.
  void rewind() { used_ = 0; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::unique_ptr<std::byte[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace phifi::util
