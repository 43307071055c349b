#include "core/trial_log.hpp"

#include <cstdio>
#include <ostream>

namespace phifi::fi {

namespace {

constexpr const char* kHeader =
    "index,outcome,due_kind,model,frame,worker,site,category,element,"
    "burst,progress,window,seconds";

}  // namespace

TrialLogWriter::TrialLogWriter(std::ostream& os) : os_(&os) {
  *os_ << kHeader << '\n';
}

void TrialLogWriter::append(const TrialResult& trial) {
  const InjectionRecord& record = trial.record;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", record.progress_fraction);
  const std::string progress = buffer;
  std::snprintf(buffer, sizeof(buffer), "%.6f", trial.seconds);
  const std::string seconds = buffer;
  *os_ << written_ << ',' << to_string(trial.outcome) << ','
       << to_string(trial.due_kind) << ',' << to_string(record.model) << ','
       << (record.frame == FrameKind::kWorker ? "worker" : "global") << ','
       << record.worker << ',' << record.site_name << ',' << record.category
       << ',' << record.element_index << ',' << record.burst_elements << ','
       << progress << ',' << trial.window << ',' << seconds << '\n';
  ++written_;
}

void TrialLogWriter::append_all(const CampaignResult& result) {
  for (const TrialResult& trial : result.trials) append(trial);
}

}  // namespace phifi::fi
