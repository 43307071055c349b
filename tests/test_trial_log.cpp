#include "core/trial_log.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

namespace phifi::fi {
namespace {

// The per-injection CSV is a published format (phifi_parse --from-journal
// --csv): the header and the row layout are pinned as literal text.
TEST(TrialLog, WriterPinsHeaderAndRowLayout) {
  TrialResult trial;
  trial.outcome = Outcome::kDue;
  trial.due_kind = DueKind::kCrash;
  trial.record.injected = true;
  trial.record.model = FaultModel::kRandom;
  trial.record.frame = FrameKind::kWorker;
  trial.record.worker = 7;
  trial.record.element_index = 17;
  trial.record.burst_elements = 2;
  trial.record.progress_fraction = 0.41;
  std::strncpy(trial.record.site_name, "matrix_a",
               sizeof(trial.record.site_name) - 1);
  std::strncpy(trial.record.category, "matrix",
               sizeof(trial.record.category) - 1);
  trial.window = 2;
  trial.seconds = 0.005;

  std::ostringstream stream;
  TrialLogWriter writer(stream);
  writer.append(trial);
  EXPECT_EQ(stream.str(),
            "index,outcome,due_kind,model,frame,worker,site,category,"
            "element,burst,progress,window,seconds\n"
            "0,DUE,crash,Random,worker,7,matrix_a,matrix,17,2,0.410000,2,"
            "0.005000\n");
}

}  // namespace
}  // namespace phifi::fi
