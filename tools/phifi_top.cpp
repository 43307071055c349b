// phifi_top: live terminal dashboard for a fabric campaign, fed by the
// coordinator's scrape endpoint (--serve-metrics).
//
//   $ phifi_top tcp:127.0.0.1:9090 [--interval <sec>] [--once]
//
// Polls /campaign.json and redraws an ANSI view of the fleet: exact
// tallies at the contiguous fold frontier, estimator confidence
// intervals, lease health, and one row per worker (live or dead).
// --once prints a single frame with no escape codes (script-friendly).
// Exit codes: 0 clean (q/EOF/--once), 1 endpoint unreachable on first
// poll, 2 usage.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/protocol.hpp"
#include "util/json.hpp"

namespace {

using phifi::util::json::Value;

/// One-shot HTTP GET against the scrape endpoint; empty string on any
/// transport failure (caller decides whether that is fatal).
// phicheck:eintr-helper deadline-bounded poll loop; EINTR just re-ticks
std::string fetch(const phifi::fabric::Address& address,
                  const std::string& route) {
  int fd = -1;
  try {
    fd = phifi::fabric::connect_to(address);
  } catch (const std::runtime_error&) {
    return "";
  }
  if (fd < 0) return "";
  const std::string request = "GET " + route + " HTTP/1.1\r\n\r\n";
  std::size_t sent = 0;
  std::string response;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    if (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      response.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      break;
    }
    ::usleep(2000);
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

std::string bar(double fraction, int width) {
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string out;
  for (int i = 0; i < width; ++i) out += i < filled ? '#' : '.';
  return out;
}

std::string seconds_label(double seconds) {
  char buffer[32];
  if (seconds >= 3600.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fh", seconds / 3600.0);
  } else if (seconds >= 60.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1fs", seconds);
  }
  return buffer;
}

/// Renders one frame from a parsed /campaign.json document. `ansi`
/// enables color; the layout is identical either way.
std::string render(const Value& doc, bool ansi) {
  const char* bold = ansi ? "\x1b[1m" : "";
  const char* dim = ansi ? "\x1b[2m" : "";
  const char* red = ansi ? "\x1b[31m" : "";
  const char* green = ansi ? "\x1b[32m" : "";
  const char* yellow = ansi ? "\x1b[33m" : "";
  const char* reset = ansi ? "\x1b[0m" : "";

  const double completed = doc.number_or("completed", 0.0);
  const double target = doc.number_or("trials_target", 0.0);
  const double fraction = target > 0.0 ? completed / target : 0.0;

  std::ostringstream out;
  out << bold << "phifi fleet" << reset << "  run " << dim
      << doc.string_or("run_id", "?") << reset << "  up "
      << seconds_label(doc.number_or("uptime_seconds", 0.0));
  if (doc.bool_or("stopped_early", false)) {
    out << "  " << yellow << "[stopped early: CI target met]" << reset;
  }
  out << "\n";

  char line[160];
  std::snprintf(line, sizeof(line), "  [%s] %.0f / %.0f trials (%.1f%%)\n",
                bar(fraction, 40).c_str(), completed, target,
                100.0 * fraction);
  out << line;

  std::snprintf(line, sizeof(line),
                "  masked %-8.0f sdc %-8.0f due %-8.0f not-injected %.0f\n",
                doc.number_or("masked", 0.0), doc.number_or("sdc", 0.0),
                doc.number_or("due", 0.0),
                doc.number_or("not_injected", 0.0));
  out << line;

  if (doc.find("sdc_rate") != nullptr) {
    std::snprintf(line, sizeof(line),
                  "  P(SDC) %.4f [%.4f, %.4f]   P(DUE) %.4f [%.4f, %.4f]\n",
                  doc.number_or("sdc_rate", 0.0),
                  doc.number_or("sdc_ci_lo", 0.0),
                  doc.number_or("sdc_ci_hi", 0.0),
                  doc.number_or("due_rate", 0.0),
                  doc.number_or("due_ci_lo", 0.0),
                  doc.number_or("due_ci_hi", 0.0));
    out << line;
    if (doc.find("eta_trials_to_stop") != nullptr) {
      std::snprintf(line, sizeof(line),
                    "  ~%.0f more trials until the CI stop width\n",
                    doc.number_or("eta_trials_to_stop", 0.0));
      out << line;
    }
  } else {
    out << dim << "  waiting for the first completed lease\n" << reset;
  }

  const Value* leases = doc.find("leases");
  if (leases != nullptr) {
    std::snprintf(line, sizeof(line),
                  "  leases: %.0f granted, %.0f reclaimed, %.0f out\n",
                  leases->number_or("granted", 0.0),
                  leases->number_or("reclaimed", 0.0),
                  leases->number_or("outstanding", 0.0));
    out << line;
  }

  const Value* workers = doc.find("workers");
  out << "\n  " << bold
      << "worker        status  lag     lease           trials/s  executed"
         "  p95 run"
      << reset << "\n";
  if (workers != nullptr) {
    for (const Value& row : workers->as_array()) {
      const bool live = row.string_or("status", "") == "live";
      std::string lease = "-";
      if (row.find("lease") != nullptr) {
        std::snprintf(line, sizeof(line), "#%.0f [%.0f,%.0f)",
                      row.number_or("lease", 0.0),
                      row.number_or("lease_begin", 0.0),
                      row.number_or("lease_end", 0.0));
        lease = line;
      }
      // p95 of the run phase from the worker's latency snapshot; absent
      // unless the worker runs with --profile.
      std::string p95_run = "-";
      if (row.find("p95_run_ms") != nullptr) {
        std::snprintf(line, sizeof(line), "%.1fms",
                      row.number_or("p95_run_ms", 0.0));
        p95_run = line;
      }
      char id_hex[24];
      std::snprintf(id_hex, sizeof(id_hex), "%012llx",
                    static_cast<unsigned long long>(
                        row.number_or("id", 0.0)));
      std::snprintf(line, sizeof(line),
                    "  %-12s  %s%-6s%s  %-6s  %-14s  %8.1f  %8.0f  %7s\n",
                    id_hex, live ? green : red, live ? "live" : "dead",
                    reset,
                    seconds_label(row.number_or("lag_seconds", 0.0)).c_str(),
                    lease.c_str(), row.number_or("trials_per_sec", 0.0),
                    row.number_or("executed", 0.0), p95_run.c_str());
      out << line;
    }
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec;
  double interval = 1.0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval") {
      if (i + 1 >= argc) {
        std::cerr << "phifi_top: --interval needs a value\n";
        return 2;
      }
      try {
        interval = std::stod(argv[++i]);
      } catch (const std::exception&) {
        interval = -1.0;
      }
      if (interval <= 0.0) {
        std::cerr << "phifi_top: --interval must be a positive number\n";
        return 2;
      }
    } else if (arg == "--once") {
      once = true;
    } else if (spec.empty()) {
      spec = arg;
    } else {
      std::cerr << "phifi_top: unexpected argument '" << arg << "'\n";
      return 2;
    }
  }
  if (spec.empty()) {
    std::cerr << "usage: phifi_top <tcp:host:port|unix:path> "
                 "[--interval <sec>] [--once]\n";
    return 2;
  }

  phifi::fabric::Address address;
  try {
    address = phifi::fabric::parse_address(spec);
  } catch (const std::runtime_error& error) {
    std::cerr << "phifi_top: " << error.what() << "\n";
    return 2;
  }

  bool ever_connected = false;
  while (true) {
    const std::string body = fetch(address, "/campaign.json");
    if (body.empty()) {
      if (!ever_connected) {
        std::cerr << "phifi_top: no response from " << spec << "\n";
        return 1;
      }
      // Coordinator wound down between polls: campaign over, exit clean.
      std::cout << "phifi_top: endpoint gone, campaign finished\n";
      return 0;
    }
    Value doc;
    try {
      doc = phifi::util::json::parse(body);
    } catch (const std::runtime_error&) {
      // Torn response; retry on the next tick.
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      continue;
    }
    ever_connected = true;
    if (once) {
      std::cout << render(doc, /*ansi=*/false);
      return 0;
    }
    std::cout << "\x1b[2J\x1b[H" << render(doc, /*ansi=*/true)
              << "\x1b[2m  refresh " << interval << "s — ctrl-c to quit"
              << "\x1b[0m\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}
