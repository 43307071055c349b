// phifi_parse: the artifact's parser-scripts analog. With --from-journal
// it reads campaign write-ahead journals — the one per-trial record a
// campaign keeps — folds them through the commit point's own
// accumulate_trial, and prints the outcome/model/window/category tables
// (Fig. 4-6, Sec. 6), so stored campaigns can be analyzed or combined
// without re-running anything. --json renders every table as one JSON
// document so CI and notebooks can diff results; --csv prints one
// journal's per-injection log instead (CAROL-FI's published log format).
// Journals of different campaigns combine; two journals of one campaign
// (fabric shards, or the same file twice) are refused — phifi_merge
// combines shards into one journal first.
//
// With --drift it compares the latest record of two --history ledgers with
// per-cell two-proportion z-tests and exits 3 when any slice moved
// significantly — the CI reliability-regression gate.
//
// With --profile it reads the NDJSON latency-anatomy stream phifi_run
// --profile writes and renders the per-workload, per-phase percentile
// table (count, p50, p95, p99, mean) from the folded log2 histograms —
// the same fold the fleet coordinator applies, so the numbers agree.
//
//   $ phifi_parse [--json] --from-journal <campaign.jnl> [more.jnl ...]
//   $ phifi_parse --from-journal --csv <campaign.jnl>
//   $ phifi_parse [--json] --profile <campaign.profile> [more ...]
//   $ phifi_parse [--json] --drift <baseline.ndjson> <current.ndjson>
//                 [--alpha <a>]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/drift.hpp"
#include "analysis/pvf.hpp"
#include "core/campaign_journal.hpp"
#include "core/trial_log.hpp"
#include "telemetry/history.hpp"
#include "telemetry/profiler.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using phifi::util::json::Value;

/// Loads journals and aggregates them through the same accumulate_trial the
/// live campaign uses. Returns the trial count via `trials`.
int aggregate_journals(const std::vector<std::string>& files,
                       phifi::fi::CampaignResult* result,
                       std::size_t* trials) {
  using namespace phifi;
  unsigned windows = 1;
  std::vector<fi::JournalContents> journals;
  // Fingerprint -> first file that carried it: attempt indices of one
  // campaign overlap across its journals, so summing them would count
  // re-executed attempts twice.
  std::map<std::uint64_t, std::string> campaigns;
  for (const std::string& file : files) {
    try {
      journals.push_back(fi::read_journal(file));
      if (journals.back().dropped_bytes > 0) {
        std::cerr << "phifi_parse: " << file << ": dropped "
                  << journals.back().dropped_bytes
                  << " bytes of torn tail\n";
      }
      windows = std::max(windows, journals.back().header.time_windows);
    } catch (const std::exception& error) {
      std::cerr << "phifi_parse: " << file << ": " << error.what() << "\n";
      return 1;
    }
    const auto [seen, fresh] =
        campaigns.emplace(journals.back().header.fingerprint, file);
    if (!fresh) {
      std::cerr << "phifi_parse: " << seen->second << " and " << file
                << " are journals of the same campaign; combine shards "
                   "with phifi_merge and parse the merged journal\n";
      return 1;
    }
  }
  result->time_windows = windows;
  result->by_window.resize(windows);
  for (const fi::JournalContents& journal : journals) {
    if (!result->workload.empty() &&
        journal.header.workload != result->workload) {
      std::cerr << "phifi_parse: refusing to merge journals from different "
                   "workloads ('"
                << result->workload << "' vs '" << journal.header.workload
                << "')\n";
      return 1;
    }
    result->workload = journal.header.workload;
    // Within one journal, sort by attempt index and drop duplicates (a
    // resumed campaign can re-append an attempt whose first write survived
    // a torn tail) so the tallies are order-independent. Across files no
    // dedup applies: separate journals are separate campaigns.
    std::vector<fi::JournalRecord> records = journal.records;
    std::stable_sort(records.begin(), records.end(),
                     [](const fi::JournalRecord& a,
                        const fi::JournalRecord& b) {
                       return a.attempt_index < b.attempt_index;
                     });
    const fi::JournalRecord* previous = nullptr;
    for (const fi::JournalRecord& record : records) {
      if (previous != nullptr &&
          previous->attempt_index == record.attempt_index) {
        std::cerr << "phifi_parse: skipping duplicate of attempt "
                  << record.attempt_index << "\n";
        continue;
      }
      previous = &record;
      fi::accumulate_trial(*result, record.trial);
      ++*trials;
    }
  }
  return 0;
}

Value tally_json(const phifi::fi::OutcomeTally& tally) {
  Value entry = Value::object();
  entry["injections"] = tally.total();
  entry["masked"] = tally.masked;
  entry["sdc"] = tally.sdc;
  entry["due"] = tally.due;
  entry["masked_rate"] = tally.masked_rate();
  entry["sdc_rate"] = tally.sdc_rate();
  entry["due_rate"] = tally.due_rate();
  return entry;
}

void print_json(const phifi::fi::CampaignResult& result, std::size_t trials) {
  using namespace phifi;
  Value root = Value::object();
  root["source"] = std::string("journal");
  root["workload"] = result.workload;
  root["trials"] = static_cast<std::uint64_t>(trials);
  root["not_injected"] = result.not_injected;
  root["overall"] = tally_json(result.overall);
  Value by_model = Value::object();
  for (fi::FaultModel model : fi::kAllFaultModels) {
    by_model[std::string(to_string(model))] =
        tally_json(result.by_model[static_cast<std::size_t>(model)]);
  }
  root["by_model"] = std::move(by_model);
  Value by_window = Value::array();
  for (unsigned w = 0; w < result.time_windows; ++w) {
    Value entry = tally_json(result.by_window[w]);
    entry["window"] = w + 1;
    entry["sdc_pvf"] = analysis::sdc_pvf(result.by_window[w]).point;
    entry["due_pvf"] = analysis::due_pvf(result.by_window[w]).point;
    by_window.push_back(std::move(entry));
  }
  root["by_window"] = std::move(by_window);
  // Machine checks: outside every model and window, inside `overall`.
  root["decided"] = tally_json(result.decided);
  Value by_category = Value::object();
  for (const auto& [category, tally] : result.by_category) {
    by_category[category] = tally_json(tally);
  }
  root["by_category"] = std::move(by_category);
  Value by_frame = Value::object();
  for (const auto& [frame, tally] : result.by_frame) {
    by_frame[frame] = tally_json(tally);
  }
  root["by_frame"] = std::move(by_frame);
  std::cout << root.dump() << "\n";
}

void print_text(const phifi::fi::CampaignResult& result, std::size_t trials) {
  using namespace phifi;
  util::Table outcomes(
      "Aggregated outcomes (" + std::to_string(trials) +
      " trials, from journal" +
      (result.workload.empty() ? "" : ", " + result.workload) + ")");
  outcomes.set_header({"slice", "injections", "masked", "sdc", "due"});
  auto add_row = [&outcomes](const std::string& label,
                             const fi::OutcomeTally& tally) {
    outcomes.add_row({label, std::to_string(tally.total()),
                      util::fmt_percent(tally.masked_rate()),
                      util::fmt_percent(tally.sdc_rate()),
                      util::fmt_percent(tally.due_rate())});
  };
  add_row("overall", result.overall);
  for (fi::FaultModel model : fi::kAllFaultModels) {
    add_row(std::string("model ") + std::string(to_string(model)),
            result.by_model[static_cast<std::size_t>(model)]);
  }
  for (unsigned w = 0; w < result.time_windows; ++w) {
    add_row("window " + std::to_string(w + 1), result.by_window[w]);
  }
  // The model rows, and the window rows, sum to overall with this one.
  if (result.decided.total() > 0) {
    add_row("decided (machine check)", result.decided);
  }
  for (const auto& [category, tally] : result.by_category) {
    add_row("category " + category, tally);
  }
  outcomes.print_text(std::cout);
}

std::string fmt_double(double value, int decimals) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

/// Loads the *latest* record of a --history ledger (the record the most
/// recent campaign appended).
int load_latest_history(const std::string& file,
                        phifi::telemetry::HistoryRecord* record) {
  using namespace phifi;
  try {
    const std::vector<telemetry::HistoryRecord> records =
        telemetry::read_history_file(file);
    if (records.empty()) {
      std::cerr << "phifi_parse: " << file << ": no campaign records\n";
      return 1;
    }
    *record = records.back();
  } catch (const std::exception& error) {
    std::cerr << "phifi_parse: " << file << ": " << error.what() << "\n";
    return 1;
  }
  return 0;
}

/// --drift: exit 0 = statistically quiet, 3 = significant movement.
int run_drift(const std::string& baseline_file,
              const std::string& current_file, double alpha, bool json) {
  using namespace phifi;
  telemetry::HistoryRecord baseline;
  telemetry::HistoryRecord current;
  if (load_latest_history(baseline_file, &baseline) != 0) return 1;
  if (load_latest_history(current_file, &current) != 0) return 1;

  analysis::DriftReport report;
  try {
    report = analysis::compute_drift(baseline, current, alpha);
  } catch (const std::exception& error) {
    std::cerr << "phifi_parse: " << error.what() << "\n";
    return 1;
  }

  if (json) {
    Value root = Value::object();
    root["workload"] = report.workload;
    root["alpha"] = report.alpha;
    root["baseline_revision"] = baseline.git_revision;
    root["current_revision"] = current.git_revision;
    root["any_significant"] = report.any_significant;
    Value entries = Value::array();
    for (const analysis::DriftEntry& entry : report.entries) {
      Value row = Value::object();
      row["slice"] = entry.slice;
      row["baseline_events"] = entry.baseline_events;
      row["baseline_trials"] = entry.baseline_trials;
      row["current_events"] = entry.current_events;
      row["current_trials"] = entry.current_trials;
      row["baseline_rate"] = entry.baseline_rate;
      row["current_rate"] = entry.current_rate;
      row["z"] = entry.z;
      row["p_value"] = entry.p_value;
      row["significant"] = entry.significant;
      entries.push_back(std::move(row));
    }
    root["entries"] = std::move(entries);
    Value unmatched = Value::array();
    for (const std::string& cell : report.unmatched_cells) {
      unmatched.push_back(cell);
    }
    root["unmatched_cells"] = std::move(unmatched);
    std::cout << root.dump() << "\n";
  } else {
    util::Table table("PVF drift - " + report.workload + " (alpha " +
                      fmt_double(report.alpha, 3) + ")");
    table.set_header(
        {"slice", "baseline", "current", "z", "p-value", "verdict"});
    for (const analysis::DriftEntry& entry : report.entries) {
      table.add_row({entry.slice,
                     util::fmt_percent(entry.baseline_rate) + " (" +
                         std::to_string(entry.baseline_events) + "/" +
                         std::to_string(entry.baseline_trials) + ")",
                     util::fmt_percent(entry.current_rate) + " (" +
                         std::to_string(entry.current_events) + "/" +
                         std::to_string(entry.current_trials) + ")",
                     fmt_double(entry.z, 2), fmt_double(entry.p_value, 4),
                     entry.significant ? "DRIFT" : "ok"});
    }
    table.print_text(std::cout);
    for (const std::string& cell : report.unmatched_cells) {
      std::cout << "note: cell " << cell << " not compared\n";
    }
    std::cout << (report.any_significant
                      ? "verdict: significant PVF movement detected\n"
                      : "verdict: no significant movement\n");
  }
  return report.any_significant ? 3 : 0;
}

/// --profile: fold per-trial latency records into per-workload histograms
/// and render the phase percentile table.
int run_profile(const std::vector<std::string>& files, bool json) {
  using namespace phifi;
  // Folding by workload keeps mixed files (e.g. merged fleet shards over
  // different workloads) readable; within one campaign there is one key.
  std::map<std::string, telemetry::ProfileSnapshot> by_workload;
  for (const std::string& file : files) {
    try {
      const telemetry::ProfileContents contents =
          telemetry::read_profile_file(file);
      if (contents.dropped_bytes > 0) {
        std::cerr << "phifi_parse: " << file << ": dropped "
                  << contents.dropped_bytes << " bytes of torn tail\n";
      }
      for (const telemetry::TrialProfile& trial : contents.trials) {
        telemetry::ProfileSnapshot& snapshot = by_workload[trial.workload];
        for (std::size_t p = 0; p < telemetry::kProfilePhaseCount; ++p) {
          snapshot.phases[p].observe(trial.phase_us[p]);
        }
      }
    } catch (const std::exception& error) {
      std::cerr << "phifi_parse: " << file << ": " << error.what() << "\n";
      return 1;
    }
  }
  if (by_workload.empty()) {
    std::cerr << "phifi_parse: no profile records\n";
    return 1;
  }
  if (json) {
    Value root = Value::object();
    root["source"] = std::string("profile");
    Value workloads = Value::object();
    for (const auto& [workload, snapshot] : by_workload) {
      Value entry = Value::object();
      entry["trials"] = snapshot.trials();
      Value phases = Value::array();
      for (std::size_t p = 0; p < telemetry::kProfilePhaseCount; ++p) {
        const telemetry::ProfilePhaseHist& hist = snapshot.phases[p];
        Value row = Value::object();
        row["phase"] = std::string(
            to_string(static_cast<telemetry::ProfilePhase>(p)));
        row["count"] = hist.count;
        row["sum_us"] = hist.sum_us;
        row["mean_ms"] = hist.mean_ms();
        row["p50_ms"] = telemetry::profile_percentile_ms(hist, 50);
        row["p95_ms"] = telemetry::profile_percentile_ms(hist, 95);
        row["p99_ms"] = telemetry::profile_percentile_ms(hist, 99);
        phases.push_back(std::move(row));
      }
      entry["phases"] = std::move(phases);
      workloads[workload] = std::move(entry);
    }
    root["workloads"] = std::move(workloads);
    std::cout << root.dump() << "\n";
  } else {
    for (const auto& [workload, snapshot] : by_workload) {
      util::Table table("Trial latency anatomy - " +
                        (workload.empty() ? std::string("(unknown)")
                                          : workload) +
                        " (" + std::to_string(snapshot.trials()) +
                        " trials)");
      table.set_header(
          {"phase", "count", "p50 ms", "p95 ms", "p99 ms", "mean ms"});
      for (std::size_t p = 0; p < telemetry::kProfilePhaseCount; ++p) {
        const telemetry::ProfilePhaseHist& hist = snapshot.phases[p];
        table.add_row(
            {std::string(to_string(static_cast<telemetry::ProfilePhase>(p))),
             std::to_string(hist.count),
             fmt_double(telemetry::profile_percentile_ms(hist, 50), 3),
             fmt_double(telemetry::profile_percentile_ms(hist, 95), 3),
             fmt_double(telemetry::profile_percentile_ms(hist, 99), 3),
             fmt_double(hist.mean_ms(), 3)});
      }
      table.print_text(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phifi;

  bool json = false;
  bool csv = false;
  std::string source;
  double alpha = 0.05;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--from-journal") {
      source = "journal";
    } else if (arg == "--profile") {
      source = "profile";
    } else if (arg == "--drift") {
      source = "drift";
    } else if (arg == "--alpha") {
      if (i + 1 >= argc) {
        std::cerr << "phifi_parse: --alpha needs a value\n";
        return 2;
      }
      alpha = std::atof(argv[++i]);
      if (alpha <= 0.0 || alpha >= 1.0) {
        std::cerr << "phifi_parse: --alpha must be in (0, 1)\n";
        return 2;
      }
    } else if (arg.starts_with("--")) {
      std::cerr << "phifi_parse: unknown option '" << arg << "'\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (source.empty() || files.empty() ||
      (source == "drift" && files.size() != 2) ||
      (csv && (source != "journal" || json || files.size() != 1))) {
    std::cerr << "usage: phifi_parse [--json] --from-journal <campaign.jnl> "
                 "[more ...]\n"
              << "       phifi_parse --from-journal --csv <campaign.jnl>\n"
              << "       phifi_parse [--json] --profile <campaign.profile> "
                 "[more ...]\n"
              << "       phifi_parse [--json] --drift <baseline.ndjson> "
                 "<current.ndjson> [--alpha <a>]\n"
              << "--csv prints one journal's per-injection log\n"
              << "--profile renders the per-workload phase latency table "
                 "from phifi_run --profile output\n"
              << "--drift compares the latest campaign record of two "
                 "--history ledgers;\nexit 3 = significant PVF movement\n";
    return 2;
  }
  if (source == "drift") {
    return run_drift(files[0], files[1], alpha, json);
  }
  if (source == "profile") {
    return run_profile(files, json);
  }

  fi::CampaignResult result;
  std::size_t trials = 0;
  const int status = aggregate_journals(files, &result, &trials);
  if (status != 0) return status;
  if (csv) {
    fi::TrialLogWriter(std::cout).append_all(result);
  } else if (json) {
    print_json(result, trials);
  } else {
    print_text(result, trials);
  }
  return 0;
}
