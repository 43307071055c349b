// phicheck fixture: the disciplined version of everything the other
// fixtures get wrong — must produce zero findings.
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <map>
#include <string>

namespace fixture_clean {

std::atomic<bool> g_flag{false};

void on_quit(int) { g_flag.store(true, std::memory_order_relaxed); }

int install_clean_handler() {
  std::signal(SIGTERM, on_quit);
  return 0;
}

int run_clean_workload();

// phicheck:shm-pod fixture_clean::GoodRecord size=8
struct GoodRecord {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

// phicheck:fork-child-entry
void clean_child_entry() {
  // phicheck:fork-workload-entry
  run_clean_workload();
  _exit(0);
}

void clean_spawn() {
  const int pid = fork();
  if (pid == 0) {
    clean_child_entry();
  }
  (void)pid;
}

// phicheck:fork-child-entry — a fork-server: each grandchild branch ends
// the process through the grandchild's own entry function.
void clean_template_loop() {
  // phicheck:fork-workload-entry
  for (int i = 0; i < 3; ++i) {
    const int pid = fork();
    if (pid == 0) {
      clean_child_entry();
    }
    (void)pid;
  }
}

// phicheck:fork-child-entry
void clean_trial_setup() {}

// phicheck:fork-resume — a serve loop whose child returns to its caller
// and resumes the interrupted run right after its entry call.
void clean_resume_server() {
  for (int i = 0; i < 3; ++i) {
    const int pid = fork();
    if (pid == 0) {
      clean_trial_setup();
      return;
    }
    (void)pid;
  }
}

// phicheck:poll-loop
void clean_event_loop() {
  for (int i = 0; i < 3; ++i) {
    // phicheck:blocking-ok(fixture: deliberate pacing nap, bounded at 100us)
    usleep(100);
  }
}

// phicheck:eintr-helper retries until the read lands or fails for real
long clean_read_retry(int fd, char* buf, unsigned long len) {
  while (true) {
    const long n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

struct CleanLink {
  void send(int frame);
};
struct CleanLedger {
  void append(int record);
};

void clean_commit(CleanLink& link, CleanLedger& ledger) {
  ledger.append(7);  // phicheck:durable-before(fixture-good)
  link.send(42);     // phicheck:wire-after(fixture-good)
}

// phicheck:exhaustive-switch
enum class CleanPhase {
  kIdle,
  kBusy,
};

int clean_dispatch(CleanPhase phase) {
  switch (phase) {
    case CleanPhase::kIdle:
      return 0;
    // phicheck:allow(enum-switch) fixture: kBusy deliberately folded in
    default:
      return 1;
  }
}

using Json = std::map<std::string, int>;

// phicheck:ndjson-writer(fixture.clean) out
Json clean_writer() {
  Json out;
  out["name"] = 1;
  out["value"] = 2;
  return out;
}

}  // namespace fixture_clean
