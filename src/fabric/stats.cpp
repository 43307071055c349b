#include "fabric/stats.hpp"

#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace phifi::fabric {

namespace {

using util::json::Value;

fi::Outcome outcome_from_name(const std::string& name) {
  for (const fi::Outcome outcome :
       {fi::Outcome::kMasked, fi::Outcome::kSdc, fi::Outcome::kDue,
        fi::Outcome::kNotInjected}) {
    if (name == fi::to_string(outcome)) return outcome;
  }
  throw std::runtime_error("fabric: unknown outcome name '" + name + "'");
}

}  // namespace

// phicheck:ndjson-writer(stats.attempt) entry
std::string encode_attempts(const std::vector<AttemptOutcome>& attempts) {
  Value array = Value::array();
  for (const AttemptOutcome& attempt : attempts) {
    Value entry = Value::object();
    entry["o"] = std::string(fi::to_string(attempt.outcome));
    entry["k"] = attempt.due_kind;
    entry["m"] = attempt.model;
    entry["c"] = attempt.category;
    entry["w"] = attempt.window;
    entry["i"] = attempt.injected;
    array.push_back(std::move(entry));
  }
  return array.dump();
}

std::vector<AttemptOutcome> decode_attempts(const std::string& text) {
  if (text.empty()) return {};
  const Value parsed = util::json::parse(text);
  if (!parsed.is_array()) {
    throw std::runtime_error("fabric: attempt detail is not a JSON array");
  }
  std::vector<AttemptOutcome> attempts;
  attempts.reserve(parsed.as_array().size());
  for (const Value& entry : parsed.as_array()) {
    if (!entry.is_object()) {
      throw std::runtime_error("fabric: attempt detail entry is not an object");
    }
    AttemptOutcome attempt;
    attempt.outcome = outcome_from_name(entry.string_or("o", ""));
    attempt.due_kind = entry.string_or("k", "none");
    attempt.model = entry.string_or("m", "");
    attempt.category = entry.string_or("c", "");
    attempt.window = static_cast<unsigned>(entry.number_or("w", 0.0));
    attempt.injected = entry.bool_or("i", false);
    attempts.push_back(std::move(attempt));
  }
  return attempts;
}

AttemptOutcome attempt_from_trial(const fi::TrialResult& trial) {
  AttemptOutcome attempt;
  attempt.outcome = trial.outcome;
  attempt.due_kind = std::string(fi::to_string(trial.due_kind));
  attempt.model = std::string(fi::to_string(trial.record.model));
  attempt.category = trial.record.category;
  attempt.window = trial.window;
  attempt.injected = trial.record.injected;
  return attempt;
}

// phicheck:ndjson-writer(stats.worker) out
std::string encode_stats(const WorkerStats& stats) {
  Value out = Value::object();
  out["executed"] = stats.executed;
  out["leases_done"] = stats.leases_done;
  out["uptime_seconds"] = stats.uptime_seconds;
  if (stats.profile.trials() > 0) {
    out["profile"] = telemetry::profile_snapshot_to_json(stats.profile);
  }
  return out.dump();
}

WorkerStats decode_stats(const std::string& text) {
  const Value parsed = util::json::parse(text);
  if (!parsed.is_object()) {
    throw std::runtime_error("fabric: stats payload is not a JSON object");
  }
  WorkerStats stats;
  stats.executed =
      static_cast<std::uint64_t>(parsed.number_or("executed", 0.0));
  stats.leases_done =
      static_cast<std::uint64_t>(parsed.number_or("leases_done", 0.0));
  stats.uptime_seconds = parsed.number_or("uptime_seconds", 0.0);
  if (const Value* profile = parsed.find("profile");
      profile != nullptr && profile->is_object()) {
    stats.profile = telemetry::profile_snapshot_from_json(*profile);
  }
  return stats;
}

}  // namespace phifi::fabric
