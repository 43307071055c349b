// Read-only shared mapping of the golden (fault-free) output.
//
// The golden bytes are mapped ONCE — into a sealed memfd when the kernel
// supports it — before any fork; every template and trial child inherits
// the read-only mapping for free, classifies in place (memcmp), and ships
// only a verdict (with an SDC's summary). No output bytes cross the
// per-slot SharedChannel.
//
// The seals (F_SEAL_WRITE et al.) turn "read-only by convention" into
// "read-only by kernel contract": no process, including this one, can
// modify the golden image after sealing, so a misbehaving trial child
// cannot corrupt the reference every sibling classifies against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace phifi::fi {

/// FNV-1a 64-bit digest; the golden output's identity in journal headers.
/// Stable across processes and runs by construction (pure function of the
/// bytes).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::byte> bytes);

class GoldenMap {
 public:
  GoldenMap() = default;
  ~GoldenMap();

  GoldenMap(const GoldenMap&) = delete;
  GoldenMap& operator=(const GoldenMap&) = delete;

  /// Copies `golden` into a shared read-only mapping (sealed memfd when
  /// available, plain shared anonymous mapping otherwise) and records its
  /// digest. Must be called in the campaign process before any trial fork
  /// so children inherit the mapping. Replaces any previous mapping.
  void publish(std::span<const std::byte> golden);

  /// Drops the mapping (parent-side only; children keep their inherited
  /// view until they exit).
  void reset();

  [[nodiscard]] bool mapped() const { return base_ != nullptr; }
  [[nodiscard]] std::span<const std::byte> golden() const {
    return {base_, size_};
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// True when the bytes live in a sealed memfd (vs the fallback mapping).
  [[nodiscard]] bool sealed() const { return sealed_; }

 private:
  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t digest_ = 0;
  bool sealed_ = false;
};

}  // namespace phifi::fi
