// Spans, host stamp, reference tallies and sample statistics.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "telemetry/history.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace json = phifi::util::json;

int SpanLog::open(std::string name, int parent) {
  const double now = now_ms();
  return add(std::move(name), parent, now, now);
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
}

int SpanLog::add(std::string name, int parent, double start_ms, double end_ms,
                 std::string trial) {
  spans_.push_back({std::move(name), std::move(trial), parent, start_ms,
                    end_ms});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    json::Value line = json::Value::object();
    line["id"] = static_cast<std::uint64_t>(id);
    line["parent"] = span.parent;
    line["name"] = span.name;
    if (!span.trial.empty()) line["trial"] = span.trial;
    line["start_ms"] = span.start_ms;
    line["end_ms"] = span.end_ms;
    out << line.dump() << "\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

std::string SpanLog::summary() const {
  // Children's intervals per parent, merged so overlapping children (trial
  // slots running in parallel) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ms, span.end_ms);
    }
  }
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    const std::string name = span.name.substr(0, span.name.find(' '));
    auto& intervals = children[id];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = span.start_ms;
    for (const auto& [start, end] : intervals) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end_ms);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    Totals& totals = by_name[name];
    ++totals.count;
    totals.total_ms += span.end_ms - span.start_ms;
    totals.self_ms += span.end_ms - span.start_ms - covered;
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, totals] : by_name) {
    std::snprintf(line, sizeof(line), "%-22s %8llu %12.1f %12.1f\n",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total_ms, totals.self_ms);
    out << line;
  }
  return out.str();
}

HostTicks host_ticks() {
  // The aggregate "cpu" line of /proc/stat: user nice system idle iowait
  // irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  HostTicks ticks;
  std::uint64_t value = 0;
  for (int field = 0; label == "cpu" && field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string host_stamp(const Settings& settings, const HostTicks& start) {
  json::Value stamp = json::Value::object();
  stamp["nproc"] =
      static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  utsname name{};
  if (::uname(&name) == 0) {
    stamp["kernel"] = std::string(name.sysname) + " " + name.release;
  }
  std::ifstream governor(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string value;
  stamp["governor"] =
      governor && std::getline(governor, value) ? value : "unreadable";
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  const std::string describe = phifi::telemetry::git_describe();
  stamp["git_describe"] = describe.empty() ? "unknown" : describe;
  stamp["workload"] = settings.set->name;
  stamp["seed"] = settings.seed;
  stamp["jobs"] = settings.jobs;
  stamp["trials_per_campaign"] = static_cast<std::uint64_t>(settings.trials);
  stamp["traced"] = settings.traced;
  // A busy hypervisor is the usual reason two runs of the same code
  // disagree on a shared virtual machine.
  const HostTicks end = host_ticks();
  stamp["steal_frac"] =
      end.total > start.total
          ? static_cast<double>(end.steal - start.steal) /
                static_cast<double>(end.total - start.total)
          : 0.0;
  return stamp.dump();
}

std::map<std::string, Tally> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference tallies " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  std::map<std::string, Tally> out;
  const json::Value* tallies = doc.find("tallies");
  if (tallies == nullptr) throw std::runtime_error(path + ": no tallies");
  for (const auto& [label, value] : tallies->as_object()) {
    const auto count = [&value](const char* key) {
      return static_cast<std::uint64_t>(value.number_or(key, 0.0));
    };
    out[label] = {count("trials"), count("masked"), count("sdc"),
                  count("due")};
  }
  return out;
}

void store_reference(const std::string& path,
                     const std::map<std::string, Tally>& tallies,
                     std::uint64_t seed) {
  json::Value doc = json::Value::object();
  doc["seed"] = seed;
  json::Value& out = doc["tallies"];
  out = json::Value::object();
  for (const auto& [label, tally] : tallies) {
    json::Value entry = json::Value::object();
    entry["trials"] = tally.trials;
    entry["masked"] = tally.masked;
    entry["sdc"] = tally.sdc;
    entry["due"] = tally.due;
    out[label] = entry;
  }
  std::ofstream file(path, std::ios::trunc);
  file << doc.dump() << "\n";
  if (!file) throw std::runtime_error("cannot write " + path);
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace perfbench
