// Tests for the determinism/concurrency lint: one fixture per rule
// (asserting rule ID, path, and line), the clean fixture, the stripper,
// whitelist semantics, and the CLI driver's exit codes.
#include "lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace uic {
namespace lint {
namespace {

std::string TestDataPath() { return UIC_LINT_TESTDATA; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lint one fixture file and return its violations.
std::vector<Violation> LintFixture(const std::string& name) {
  return LintFile(TestDataPath(), name);
}

struct FixtureCase {
  const char* file;
  const char* rule_id;
  size_t line;
};

TEST(UicLint, EachRuleFixtureIsCaughtAtTheDocumentedLine) {
  const std::vector<FixtureCase> cases = {
      {"violation_rand.cc", "UIC-L001", 5},
      {"violation_random_device.cc", "UIC-L002", 5},
      {"violation_time.cc", "UIC-L003", 5},
      {"violation_thread.cc", "UIC-L004", 5},
      {"violation_volatile.cc", "UIC-L005", 4},
      {"violation_unordered_iter.cc", "UIC-L006", 8},
      {"violation_socket_io.cc", "UIC-L008", 6},
      {"violation_edge_bernoulli.cc", "UIC-L009", 10},
      {"violation_failpoint.cc", "UIC-L010", 7},
      {"violation_metric_register.cc", "UIC-L011", 7},
  };
  for (const FixtureCase& c : cases) {
    const std::vector<Violation> found = LintFixture(c.file);
    ASSERT_EQ(found.size(), 1u) << c.file;
    EXPECT_EQ(found[0].rule_id, c.rule_id) << c.file;
    EXPECT_EQ(found[0].line, c.line) << c.file;
    EXPECT_EQ(found[0].path, c.file);
    EXPECT_FALSE(found[0].message.empty());
  }
}

TEST(UicLint, RawMutexRuleAppliesOnlyUnderSrc) {
  const std::string source =
      ReadFile(TestDataPath() + "/violation_raw_mutex.cc");
  // Linted as library code: both the global mutex and the lock_guard hit.
  const std::vector<Violation> in_src =
      LintSource("src/concurrency/raw_mutex.cc", source);
  ASSERT_EQ(in_src.size(), 2u);
  EXPECT_EQ(in_src[0].rule_id, "UIC-L007");
  EXPECT_EQ(in_src[0].line, 6u);
  EXPECT_EQ(in_src[1].rule_id, "UIC-L007");
  EXPECT_EQ(in_src[1].line, 9u);
  // The same content as test scaffolding is fine.
  EXPECT_TRUE(LintSource("tests/raw_mutex.cc", source).empty());
  // And the sanctioned wrapper implementation is exempt.
  EXPECT_TRUE(LintSource("src/common/mutex.h", source).empty());
}

TEST(UicLint, ThreadPoolImplementationIsExemptFromRawThreadRule) {
  const std::string source = ReadFile(TestDataPath() + "/violation_thread.cc");
  EXPECT_EQ(LintSource("bench/fork_join.cc", source).size(), 1u);
  EXPECT_TRUE(LintSource("src/common/thread_pool.cc", source).empty());
}

TEST(UicLint, SocketIoRuleExemptsOnlyTheServeNetLayer) {
  const std::string source =
      ReadFile(TestDataPath() + "/violation_socket_io.cc");
  // The sanctioned transport may make the syscalls...
  EXPECT_TRUE(LintSource("src/serve/net.cc", source).empty());
  EXPECT_TRUE(LintSource("src/serve/net.h", source).empty());
  // ...everything else (library, daemon, tests) may not.
  EXPECT_EQ(LintSource("src/serve/server.cc", source).size(), 1u);
  EXPECT_EQ(LintSource("examples/uic_served.cpp", source).size(), 1u);
  EXPECT_EQ(LintSource("tests/test_serve.cc", source).size(), 1u);
}

TEST(UicLint, SocketIoRuleIgnoresMemberAndQualifiedNames) {
  // Method calls, qualified names, and identifier suffixes are not the
  // syscall: only a bare call expression hits.
  EXPECT_TRUE(
      LintSource("src/a.cc", "channel.send(fd);\n").empty());
  EXPECT_TRUE(
      LintSource("src/a.cc", "Mailbox::connect(peer);\n").empty());
  EXPECT_TRUE(LintSource("src/a.cc", "int resend(int);\n").empty());
  EXPECT_TRUE(LintSource("src/a.cc", "box->recv(m);\n").empty());
  EXPECT_EQ(LintSource("src/a.cc", "recv(fd, buf, n, 0);\n").size(), 1u);
  EXPECT_EQ(LintSource("src/a.cc", "x = connect(fd, a, l);\n").size(), 1u);
}

TEST(UicLint, EdgeBernoulliRuleExemptsOnlyTheSamplingKernels) {
  const std::string source =
      ReadFile(TestDataPath() + "/violation_edge_bernoulli.cc");
  // The scan kernels are the sanctioned per-edge Bernoulli loops...
  EXPECT_TRUE(LintSource("src/rrset/rr_collection.cc", source).empty());
  EXPECT_TRUE(LintSource("src/diffusion/ic_model.cc", source).empty());
  // ...anywhere else the loop must go through a SamplingPlan kernel or
  // earn a whitelist entry (as uic_model.cc's forward simulator does).
  EXPECT_EQ(LintSource("src/diffusion/uic_model.cc", source).size(), 1u);
  EXPECT_EQ(LintSource("tests/test_models.cc", source).size(), 1u);
}

TEST(UicLint, CleanFixtureHasNoViolations) {
  const std::vector<Violation> found = LintFixture("clean.cc");
  EXPECT_TRUE(found.empty());
}

TEST(UicLint, HardwareConcurrencyIsNotARawThread) {
  EXPECT_TRUE(
      LintSource("src/a.cc", "unsigned n = std::thread::hardware_concurrency();")
          .empty());
  EXPECT_EQ(LintSource("src/a.cc", "std::thread t(Work);").size(), 1u);
}

TEST(UicLint, StripperErasesCommentsAndStringsButKeepsLines) {
  const std::string source =
      "int a; // std::rand()\n"
      "/* volatile\n   std::thread */ int b;\n"
      "const char* s = \"std::random_device\";\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("volatile"), std::string::npos);
  EXPECT_EQ(stripped.find("random_device"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  // And therefore none of it lints as a violation.
  EXPECT_TRUE(LintSource("src/a.cc", source).empty());
}

TEST(UicLint, EscapedQuotesAndCharLiteralsDoNotDerailTheStripper) {
  const std::string source =
      "const char* s = \"escaped \\\" quote\";\n"
      "char c = '\"';\n"
      "int after = std::rand();\n";
  const std::vector<Violation> found = LintSource("src/a.cc", source);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule_id, "UIC-L001");
  EXPECT_EQ(found[0].line, 3u);
}

TEST(UicLint, InlineAllowSuppressesOnlyTheNamedRuleOnThatLine) {
  const std::string allowed =
      "volatile int x = 0;  // uic-lint: allow(UIC-L005)\n";
  EXPECT_TRUE(LintSource("src/a.cc", allowed).empty());
  const std::string wrong_rule =
      "volatile int x = 0;  // uic-lint: allow(UIC-L001)\n";
  EXPECT_EQ(LintSource("src/a.cc", wrong_rule).size(), 1u);
  const std::string other_line =
      "// uic-lint: allow(UIC-L005)\nvolatile int x = 0;\n";
  EXPECT_EQ(LintSource("src/a.cc", other_line).size(), 1u);
}

TEST(UicLint, WhitelistMatchesOnPathBoundaries) {
  Whitelist wl;
  wl.entries.push_back({"UIC-L004", "tests/test_thread_pool.cc"});
  Violation v{"tests/test_thread_pool.cc", 1, "UIC-L004", ""};
  EXPECT_TRUE(wl.Allows(v));
  v.path = "repo/tests/test_thread_pool.cc";
  EXPECT_TRUE(wl.Allows(v));
  v.path = "mytests/test_thread_pool.cc";
  EXPECT_FALSE(wl.Allows(v));
  v.path = "tests/test_thread_pool.cc";
  v.rule_id = "UIC-L005";
  EXPECT_FALSE(wl.Allows(v));
}

TEST(UicLint, WhitelistLoaderRejectsUnknownRules) {
  const std::string path = ::testing::TempDir() + "/wl_bad.txt";
  {
    std::ofstream out(path);
    out << "# comment\nUIC-L999 some/path.cc\n";
  }
  Whitelist wl;
  std::string error;
  EXPECT_FALSE(LoadWhitelist(path, &wl, &error));
  EXPECT_NE(error.find("UIC-L999"), std::string::npos);
}

TEST(UicLint, WhitelistLoaderParsesEntriesAndComments) {
  const std::string path = ::testing::TempDir() + "/wl_ok.txt";
  {
    std::ofstream out(path);
    out << "\n# header\nUIC-L004 tests/test_thread_pool.cc  # reason\n";
  }
  Whitelist wl;
  std::string error;
  ASSERT_TRUE(LoadWhitelist(path, &wl, &error)) << error;
  ASSERT_EQ(wl.entries.size(), 1u);
  EXPECT_EQ(wl.entries[0].rule_id, "UIC-L004");
  EXPECT_EQ(wl.entries[0].path_suffix, "tests/test_thread_pool.cc");
}

TEST(UicLint, RuleTableHasElevenRulesWithHints) {
  const std::vector<Rule>& rules = RuleTable();
  ASSERT_EQ(rules.size(), 11u);
  for (size_t i = 0; i < rules.size(); ++i) {
    std::string number = std::to_string(i + 1);
    while (number.size() < 3) number.insert(number.begin(), '0');
    EXPECT_EQ(rules[i].id, "UIC-L" + number);
    EXPECT_FALSE(rules[i].hint.empty()) << rules[i].id;
    EXPECT_FALSE(rules[i].description.empty()) << rules[i].id;
  }
}

TEST(UicLint, FailpointSiteRuleExemptsLibraryCode) {
  const std::string source =
      ReadFile(TestDataPath() + "/violation_failpoint.cc");
  // Sites are legal anywhere under src/ (the audited roster)...
  EXPECT_TRUE(LintSource("src/serve/net.cc", source).empty());
  EXPECT_TRUE(LintSource("src/core/serialization.cc", source).empty());
  // ...but tests, benches, and tools must go through the registry API.
  EXPECT_EQ(LintSource("tests/test_serve.cc", source).size(), 1u);
  EXPECT_EQ(LintSource("bench/bench_serve.cc", source).size(), 1u);
  EXPECT_EQ(LintSource("examples/uic_served.cpp", source).size(), 1u);
}

TEST(UicLint, MetricRegistrationRuleExemptsOnlyTheRegistryLayer) {
  const std::string source =
      ReadFile(TestDataPath() + "/violation_metric_register.cc");
  // The registry implementation and its macro layer make the real calls...
  EXPECT_TRUE(LintSource("src/obs/metrics.cc", source).empty());
  EXPECT_TRUE(LintSource("src/obs/metrics.h", source).empty());
  // ...everything else goes through UIC_METRIC_* (macro-using sources
  // never contain the Register* token) or earns a whitelist entry, as
  // the registry unit tests do.
  EXPECT_EQ(LintSource("src/serve/server.cc", source).size(), 1u);
  EXPECT_EQ(LintSource("tests/test_obs.cc", source).size(), 1u);
  EXPECT_EQ(LintSource("examples/uic_run.cpp", source).size(), 1u);
}

TEST(UicLint, CliExitsNonzeroOnViolationsAndReportsRuleAndPath) {
  std::ostringstream out, err;
  const int code =
      RunLint({"--root", TestDataPath(), "violation_rand.cc"}, out, err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.str().find("violation_rand.cc:5"), std::string::npos);
  EXPECT_NE(out.str().find("[UIC-L001]"), std::string::npos);
  EXPECT_NE(out.str().find("fix:"), std::string::npos);
}

TEST(UicLint, CliExitsZeroOnCleanInput) {
  std::ostringstream out, err;
  const int code = RunLint({"--root", TestDataPath(), "clean.cc"}, out, err);
  EXPECT_EQ(code, 0) << out.str();
  EXPECT_NE(out.str().find("clean"), std::string::npos);
}

TEST(UicLint, CliRejectsUnknownFlagsAndMissingTrees) {
  std::ostringstream out, err;
  EXPECT_EQ(RunLint({"--bogus"}, out, err), 2);
  EXPECT_EQ(RunLint({"--root", TestDataPath() + "/nope"}, out, err), 2);
}

TEST(UicLint, ListRulesPrintsEveryRuleId) {
  std::ostringstream out, err;
  EXPECT_EQ(RunLint({"--list-rules"}, out, err), 0);
  for (const Rule& r : RuleTable()) {
    EXPECT_NE(out.str().find(r.id), std::string::npos);
  }
}

}  // namespace
}  // namespace lint
}  // namespace uic
