// Trial outcome taxonomy (Sec. 2.1 of the paper): a transient fault is
// masked, causes Silent Data Corruption (wrong output, clean exit), or a
// Detected Uncorrectable Error (crash / hang / device reboot).
#pragma once

#include <string_view>

namespace phifi::fi {

// phicheck:exhaustive-switch — the outcome taxonomy feeds every estimator and
// report; a silently-defaulted new outcome would skew published rates.
enum class Outcome {
  kMasked,      ///< program finished, output bit-identical to golden
  kSdc,         ///< program finished, output differs
  kDue,         ///< crash, abnormal exit, or hang
  kNotInjected, ///< the run finished before the flip fired; excluded from stats
};

/// What kind of DUE was detected (all collapse to "DUE" in the paper's
/// figures; the split is logged for diagnosis).
// phicheck:exhaustive-switch
enum class DueKind {
  kNone,
  kCrash,        ///< killed by SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT
  kAbnormalExit, ///< exited with nonzero status (e.g. uncaught exception)
  kHang,         ///< exceeded the watchdog deadline and was killed
  kRlimit,       ///< hit a per-child resource limit (CPU rlimit SIGXCPU, or
                 ///< address-space rlimit surfacing as allocation failure)
  kStall,        ///< heartbeat stalled; cut before the absolute deadline
  kMachineCheck, ///< a beam strike the hardware detected (MCA); decided
                 ///< without running the program
};

constexpr std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked: return "Masked";
    case Outcome::kSdc: return "SDC";
    case Outcome::kDue: return "DUE";
    case Outcome::kNotInjected: return "NotInjected";
  }
  return "?";
}

constexpr std::string_view to_string(DueKind kind) {
  switch (kind) {
    case DueKind::kNone: return "none";
    case DueKind::kCrash: return "crash";
    case DueKind::kAbnormalExit: return "abnormal-exit";
    case DueKind::kHang: return "hang";
    case DueKind::kRlimit: return "rlimit";
    case DueKind::kStall: return "stall";
    case DueKind::kMachineCheck: return "machine-check";
  }
  return "?";
}

}  // namespace phifi::fi
