// Injection sites: the program variables CAROL-FI can corrupt.
//
// CAROL-FI uses DWARF debug info to enumerate the variables of a randomly
// selected stack frame. In this in-process reproduction, each workload
// registers its variables explicitly after setup: global-frame variables
// (input/output arrays, constants) and per-logical-thread frame variables
// (the loop control slots in each worker's ControlBlock). The flip engine
// then mimics the Flip-script selection: thread -> frame -> variable ->
// element -> fault model.
//
// A workload also registers *state*: memory a later step of its run reads
// that no site holds and faults must not target (a pass's saved result, a
// live element count). Sites, state and the output together are what a
// trial's digests are compared on when the supervisor cuts a trial whose
// run has re-joined the golden run (docs/PARALLELISM.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace phifi::fi {

/// Which frame a variable lives in, mirroring GDB's view of the program.
enum class FrameKind {
  kGlobal,  ///< outermost frame: globals / heap arrays / constants
  kWorker,  ///< a logical hardware thread's local frame (control block)
};

struct InjectionSite {
  std::string name;      ///< source-level variable name, e.g. "matrix_a"
  std::string category;  ///< analysis grouping, e.g. "matrix", "control"
  FrameKind frame = FrameKind::kGlobal;
  int worker = -1;  ///< logical worker id for kWorker sites, -1 otherwise
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  std::size_t element_size = 4;  ///< granule the fault models operate on

  [[nodiscard]] std::size_t element_count() const {
    return element_size == 0 ? 0 : bytes / element_size;
  }
  [[nodiscard]] std::span<std::byte> element(std::size_t index) const {
    return {data + index * element_size, element_size};
  }
};

/// Registered memory that is digested but never injected into.
struct StateSpan {
  std::string name;
  const std::byte* data = nullptr;
  std::size_t bytes = 0;
};

/// 64-bit digest of `bytes`, read as little-endian 8-byte words (the last
/// one zero-padded) over four interleaved lanes. Every step is a bijection
/// of a lane's state — xor a word, multiply by an odd constant, xor-shift
/// — and the lanes fold the same way, so two buffers of one length that
/// differ in a single word never collide. Allocates nothing.
[[nodiscard]] std::uint64_t state_digest(std::span<const std::byte> bytes);

/// Collects the sites of one workload instance. Lives in the trial child
/// process; pointers reference live workload memory.
class SiteRegistry {
 public:
  /// Registers a global-frame variable.
  void add_global(std::string name, std::string category,
                  std::span<std::byte> bytes, std::size_t element_size);

  /// Registers a per-worker variable (one control slot of one worker).
  void add_worker(int worker, std::string name, std::string category,
                  std::span<std::byte> bytes, std::size_t element_size);

  /// Typed convenience: registers the bytes of an array of T.
  template <typename T>
  void add_global_array(std::string name, std::string category,
                        std::span<T> values) {
    add_global(std::move(name), std::move(category),
               {reinterpret_cast<std::byte*>(values.data()),
                values.size() * sizeof(T)},
               sizeof(T));
  }

  /// Typed convenience: registers one scalar object.
  template <typename T>
  void add_global_scalar(std::string name, std::string category, T& value) {
    add_global(std::move(name), std::move(category),
               {reinterpret_cast<std::byte*>(&value), sizeof(T)}, sizeof(T));
  }

  /// Registers state: memory a later step of the run reads, which no site
  /// holds and faults must not target. Only state_digest() sees it; the
  /// flip engine, size(), total_bytes() and frame_sites*() do not.
  void add_state(std::string name, std::span<const std::byte> bytes);

  /// Typed convenience: registers one object as state.
  template <typename T>
  void add_state_object(std::string name, const T& value) {
    add_state(std::move(name),
              {reinterpret_cast<const std::byte*>(&value), sizeof(T)});
  }

  [[nodiscard]] std::span<const InjectionSite> sites() const { return sites_; }
  [[nodiscard]] std::size_t size() const { return sites_.size(); }
  [[nodiscard]] const InjectionSite& site(std::size_t i) const {
    return sites_[i];
  }

  /// Number of distinct workers that registered worker-frame sites.
  [[nodiscard]] std::size_t worker_frame_count() const;

  /// Indices of all sites in the given frame (worker = specific id for
  /// kWorker frames; ignored for the global frame).
  [[nodiscard]] std::vector<std::size_t> frame_sites(FrameKind frame,
                                                     int worker = -1) const;

  /// Allocation-free variant for the trial hot loop: writes matching site
  /// indices into `out` (sized >= size()) and returns how many were
  /// written. Selection order matches frame_sites().
  std::size_t frame_sites_into(FrameKind frame, int worker,
                               std::span<std::size_t> out) const;

  /// Total registered bytes (for bytes-weighted selection).
  [[nodiscard]] std::size_t total_bytes() const;

  [[nodiscard]] std::span<const StateSpan> state() const { return state_; }

  /// One digest over every state span, in registration order. Allocates
  /// nothing.
  [[nodiscard]] std::uint64_t state_digest() const;

  void clear() {
    sites_.clear();
    state_.clear();
  }

 private:
  std::vector<InjectionSite> sites_;
  std::vector<StateSpan> state_;
};

}  // namespace phifi::fi
