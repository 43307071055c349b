// Flip-script analog: selects where to inject and applies the fault model.
#pragma once

#include <cstdint>
#include <memory>

#include "core/fault_model.hpp"
#include "core/injection_site.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace phifi::fi {

/// How the engine picks a victim variable.
enum class SelectionPolicy : int {
  /// CAROL-FI's Flip-script order: pick a thread uniformly, pick one of its
  /// frames uniformly (the thread's local frame or the outer/global frame),
  /// pick a variable within the frame proportionally to its memory
  /// footprint, pick an element uniformly within the variable.
  kCarolFi = 0,
  /// Pick any element uniformly over all registered bytes (probability of a
  /// variable proportional to its size), like a raw memory-strike model.
  kBytesWeighted = 1,
  /// Beam-simulation targets: a strike in a data-path resource manifests in
  /// program data (global frame, bytes-weighted) ...
  kGlobalBytesWeighted = 2,
  /// ... while a strike in dispatch/pipeline control state manifests in a
  /// hardware thread's in-flight control variables (uniform worker frame).
  kWorkerFrameOnly = 3,
};

constexpr std::string_view to_string(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kCarolFi: return "carol-fi";
    case SelectionPolicy::kBytesWeighted: return "bytes-weighted";
    case SelectionPolicy::kGlobalBytesWeighted: return "global-bytes";
    case SelectionPolicy::kWorkerFrameOnly: return "worker-frame";
  }
  return "?";
}

/// Everything CAROL-FI logs about one injection (Sec. 5.1): the variable,
/// its frame/category, the fault model, what changed, and when it fired.
/// Fixed-size POD so it can travel through the shared-memory channel.
// phicheck:shm-pod phifi::fi::InjectionRecord size=152
struct InjectionRecord {
  bool injected = false;
  bool changed = false;  ///< at least one bit actually differs after the flip
  FaultModel model = FaultModel::kSingle;
  FrameKind frame = FrameKind::kGlobal;
  std::int32_t worker = -1;
  std::uint32_t site_index = 0;
  std::uint64_t element_index = 0;
  std::uint32_t burst_elements = 1;  ///< consecutive elements corrupted
  std::uint64_t flipped_bits[2] = {0, 0};
  std::uint32_t flipped_count = 0;
  double progress_fraction = 0.0;
  char site_name[48] = {};
  char category[32] = {};
};

class FlipEngine {
 public:
  FlipEngine(const SiteRegistry& registry, SelectionPolicy policy)
      : registry_(&registry), policy_(policy) {}

  /// Picks a victim per the policy and applies `model` to it in place,
  /// while the program may be running (that is the point). `burst` > 1
  /// applies the model to that many consecutive elements of the victim
  /// variable (clamped to its end) — the physical footprint of an upset in
  /// a 512-bit vector register or a cache line spans several program
  /// elements. Returns the log record; record.injected is false only if
  /// the registry is empty.
  InjectionRecord inject(FaultModel model, util::Rng& rng,
                         double progress_fraction, unsigned burst = 1);

  /// Switches the selection policy of later inject() calls; allocates
  /// nothing, so a trial forked from a parked engine can retarget it.
  void set_policy(SelectionPolicy policy) { policy_ = policy; }

 private:
  std::size_t select_site(util::Rng& rng);
  std::size_t select_carol_fi(util::Rng& rng);
  std::size_t select_bytes_weighted(util::Rng& rng, bool global_only = false);
  std::size_t select_worker_frame(util::Rng& rng);

  /// Scratch for the selection paths (frame index lists, weight tables) —
  /// rewound per inject() so selection never touches the heap after the
  /// first injection. Sized for the worst case, so allocate_span cannot
  /// fail mid-selection once created.
  util::BumpArena& scratch();

  const SiteRegistry* registry_;
  SelectionPolicy policy_;
  std::unique_ptr<util::BumpArena> arena_;
};

}  // namespace phifi::fi
