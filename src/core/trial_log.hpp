// Per-injection CSV log, a view over the campaign journal.
//
// CAROL-FI stores, for every injection: the fault model, the corrupted
// variable (name, frame, thread), where in the execution it fired, and the
// observed outcome; the paper publishes those logs for third-party analysis
// (its reference [40]). The campaign's record of truth is its write-ahead
// journal; TrialLogWriter renders a campaign's TrialResults as that kind of
// CSV record, which is what phifi_parse --from-journal --csv prints.
#pragma once

#include <iosfwd>

#include "core/campaign.hpp"

namespace phifi::fi {

class TrialLogWriter {
 public:
  /// Writes the header row.
  explicit TrialLogWriter(std::ostream& os);

  /// Appends one trial.
  void append(const TrialResult& trial);

  /// Convenience: writes a whole campaign's trial list.
  void append_all(const CampaignResult& result);

 private:
  std::ostream* os_;
  std::uint64_t written_ = 0;
};

}  // namespace phifi::fi
