// Self-test for the phicheck static analyzer: runs the real binary over
// fixture translation units seeded with known violations and asserts the
// golden diagnostics, then checks the clean fixture and the shm assert
// emission over the real src/ tree.
//
// The fixture files under tests/phicheck_fixtures/ are scan targets only —
// they are never compiled into any test binary.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PHICHECK_BIN
#error "PHICHECK_BIN must be defined to the phicheck executable path"
#endif
#ifndef PHICHECK_FIXTURES
#error "PHICHECK_FIXTURES must be defined to the fixture directory"
#endif
#ifndef PHICHECK_DATA
#error "PHICHECK_DATA must be defined to the tools/phicheck data directory"
#endif
#ifndef PHICHECK_SRC
#error "PHICHECK_SRC must be defined to the repo src/ directory"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_phicheck(const std::string& args) {
  RunResult result;
  const std::string cmd = std::string(PHICHECK_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

std::string fixture_args() {
  return std::string("--root ") + PHICHECK_FIXTURES + " --allowlist " +
         PHICHECK_DATA + "/signal_allowlist.txt --policy " +
         PHICHECK_FIXTURES + "/fixtures_policy.txt --ndjson-schema " +
         PHICHECK_FIXTURES + "/fixtures_ndjson_schema.txt";
}

}  // namespace

TEST(PhicheckTest, FixtureScanFindsAllSeededViolations) {
  const RunResult r = run_phicheck(fixture_args());
  ASSERT_EQ(r.exit_code, 1) << r.output;

  // Signal-safety: direct call and call through a helper in the call graph.
  EXPECT_NE(r.output.find("signal_unsafe.cpp:13: [signal-safety] call to "
                          "'printf'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("via on_signal -> helper"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("signal_unsafe.cpp:19: [signal-safety] call to "
                          "'malloc'"),
            std::string::npos)
      << r.output;

  // Fork-safety: stdio and heap before the workload entry marker, plus a
  // child branch calling an unannotated function.
  EXPECT_NE(r.output.find("fork_unsafe.cpp:13: [fork-safety] call to "
                          "'printf'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("fork_unsafe.cpp:14: [fork-safety] heap allocation"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fork_unsafe.cpp:32: [fork-safety] child branch "
                          "of fork() calls 'run_workload'"),
            std::string::npos)
      << r.output;

  // Double-fork (fork-server) topology: a grandchild branch that falls
  // through past its entry call, and one with no terminating call at all.
  EXPECT_NE(r.output.find("double_fork_bad.cpp:21: [fork-safety] "
                          "fork-server 'bad_template_loop' forks a "
                          "grandchild whose branch can fall through"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("double_fork_bad.cpp:33: [fork-safety] "
                          "fork-server 'silent_template_loop' forks a "
                          "grandchild whose branch can fall through"),
            std::string::npos)
      << r.output;

  // Shm-POD: allocating member, raw pointer member, missing size pin.
  EXPECT_NE(r.output.find("shm_nonpod.cpp:10: [shm-pod] member 'label'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("shm_nonpod.cpp:11: [shm-pod] pointer member 'bytes'"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("shm_nonpod.cpp:16: [shm-pod] shm-pod "
                          "'fixture::MissingPin' is missing a size= pin"),
            std::string::npos)
      << r.output;

  // Atomics: order violating policy, implicit seq_cst, undeclared atomic.
  EXPECT_NE(r.output.find("atomics_mismatch.cpp:11: [atomics] memory_order "
                          "'relaxed' on 'g_ready.load'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("atomics_mismatch.cpp:13: [atomics] memory_order "
                          "'implicit' on 'g_ready.store'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("atomics_mismatch.cpp:15: [atomics] atomic op "
                          "'g_undeclared.fetch_add' has no declared policy"),
            std::string::npos)
      << r.output;

  // Poll-loop: blocking call direct from the root and through a helper.
  EXPECT_NE(r.output.find("pollblock_bad.cpp:17: [poll-loop] blocking call "
                          "'usleep' reachable from poll loop "
                          "(bad_event_loop -> usleep)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("pollblock_bad.cpp:11: [poll-loop] blocking call "
                          "'nanosleep' reachable from poll loop "
                          "(bad_event_loop -> pollblock_drain -> nanosleep)"),
            std::string::npos)
      << r.output;

  // EINTR discipline: raw syscall outside any annotated helper.
  EXPECT_NE(r.output.find("eintr_unguarded.cpp:9: [eintr] direct call to "
                          "interruptible 'read' in 'drain_fd' outside an "
                          "eintr-helper"),
            std::string::npos)
      << r.output;

  // Durability order: send precedes the matching append.
  EXPECT_NE(r.output.find("durability_bad.cpp:13: [durability] "
                          "wire-after(fixture-bad) is not dominated by "
                          "durable-before(fixture-bad)"),
            std::string::npos)
      << r.output;

  // Enum-switch: a default swallowing an enumerator.
  EXPECT_NE(r.output.find("switch_nonexhaustive.cpp:13: [enum-switch] switch "
                          "over 'Phase' in 'bad_dispatch' does not name "
                          "enumerator(s): kDrain"),
            std::string::npos)
      << r.output;

  // NDJSON schema: one undeclared field written, one required field missing.
  EXPECT_NE(r.output.find("ndjson_drift.cpp:11: [ndjson-schema] "
                          "'drifting_writer' writes field 'gamma' not "
                          "declared for family 'fixture.sample'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("ndjson_drift.cpp:11: [ndjson-schema] "
                          "'drifting_writer' does not write required field "
                          "'beta' of family 'fixture.sample'"),
            std::string::npos)
      << r.output;

  EXPECT_NE(r.output.find("phicheck: 20 finding(s)"), std::string::npos)
      << r.output;
}

TEST(PhicheckTest, JsonReportCarriesFindings) {
  const RunResult r = run_phicheck(fixture_args() + " --json -");
  ASSERT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"checker\": \"poll-loop\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"checker\": \"durability\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"files_scanned\""), std::string::npos) << r.output;
}

TEST(PhicheckTest, CleanFixtureProducesNoFindings) {
  const std::string args = std::string("--root ") + PHICHECK_FIXTURES +
                           "/clean.cpp --allowlist " + PHICHECK_DATA +
                           "/signal_allowlist.txt --policy " +
                           PHICHECK_FIXTURES + "/fixtures_policy.txt" +
                           " --ndjson-schema " + PHICHECK_FIXTURES +
                           "/fixtures_ndjson_schema.txt";
  const RunResult r = run_phicheck(args);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("phicheck: OK"), std::string::npos) << r.output;
}

TEST(PhicheckTest, RealSourcesScanClean) {
  // The CI gate in another form: the product tree must stay checker-clean.
  const std::string args = std::string("--root ") + PHICHECK_SRC +
                           " --allowlist " + PHICHECK_DATA +
                           "/signal_allowlist.txt --policy " + PHICHECK_DATA +
                           "/atomics_policy.txt --ndjson-schema " +
                           PHICHECK_DATA + "/ndjson_schema.txt";
  const RunResult r = run_phicheck(args);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(PhicheckTest, SchemaDriftFailsTheGate) {
  // Deleting a declared field from the spec must fail the ndjson gate (and
  // therefore the build step that emits the Python table).
  std::ifstream in(std::string(PHICHECK_DATA) + "/ndjson_schema.txt");
  ASSERT_TRUE(in.good());
  const std::string drifted = ::testing::TempDir() + "drifted_schema.txt";
  {
    std::ofstream out(drifted);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("elapsed_ms") != std::string::npos) continue;
      out << line << "\n";
    }
  }
  const std::string args = std::string("--check ndjson --root ") +
                           PHICHECK_SRC + "/telemetry/trace.cpp" +
                           " --ndjson-schema " + drifted;
  const RunResult r = run_phicheck(args);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("writes field 'elapsed_ms' not declared for "
                          "family 'trace.end'"),
            std::string::npos)
      << r.output;
  std::remove(drifted.c_str());
}

TEST(PhicheckTest, ShmAssertEmissionCoversRealSharedStructs) {
  const std::string args = std::string("--root ") + PHICHECK_SRC +
                           " --check shm --emit-shm-asserts -";
  const RunResult r = run_phicheck(args);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(
                "static_assert(sizeof(phifi::fi::InjectionRecord) == 152"),
            std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("static_assert(sizeof(phifi::fi::ShmHeader) == 280"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "std::is_trivially_copyable_v<phifi::fi::InjectionRecord>"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("is_always_lock_free"), std::string::npos)
      << r.output;
}

TEST(PhicheckTest, UnknownFlagReportsUsage) {
  const RunResult r = run_phicheck("--no-such-flag");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}
