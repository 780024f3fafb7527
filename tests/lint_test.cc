// Tests for the totoro_lint rule engine (tools/lint/): synthetic source snippets are
// fed through RunLint and the findings checked per rule — a positive and a negative
// case for each of R1–R10, annotation escape hatches, include-closure resolution,
// allowlist parsing/matching, and a self-audit that re-lints the real tree in-process
// and checks the allowlist against its shrink budget.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/allowlist.h"
#include "tools/lint/lexer.h"
#include "tools/lint/rules.h"

namespace totoro::lint {
namespace {

std::vector<Finding> LintOne(const std::string& path, const std::string& content) {
  return RunLint({{path, content}}, LintOptions());
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& symbol) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.symbol == symbol;
  });
}

// --- Lexer basics ------------------------------------------------------------------

TEST(LexerTest, TokenizesIdentifiersStringsAndAnnotations) {
  const LexedFile lexed = Lex(
      "#include \"src/sim/simulator.h\"\n"
      "int x = 1;  // LINT: order-independent metric fold\n"
      "const char* s = \"a.b\";\n");
  ASSERT_EQ(lexed.quoted_includes.size(), 1u);
  EXPECT_EQ(lexed.quoted_includes[0], "src/sim/simulator.h");
  ASSERT_TRUE(lexed.annotations.count(2));
  EXPECT_EQ(lexed.annotations.at(2), "order-independent metric fold");
  const bool has_string =
      std::any_of(lexed.tokens.begin(), lexed.tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kString && t.text == "a.b";
      });
  EXPECT_TRUE(has_string);
}

TEST(LexerTest, StringContentsDoNotLeakTokens) {
  // `rand(` inside a string literal must not trip R1.
  const auto findings =
      LintOne("src/sim/x.cc", "const char* s = \"rand() time()\";\n");
  EXPECT_TRUE(findings.empty());
}

// --- R1: nondeterminism sources ----------------------------------------------------

TEST(R1Test, FlagsRandAndClocksInDeterministicDirs) {
  const auto findings = LintOne("src/sim/x.cc",
                                "int a = rand();\n"
                                "std::random_device rd;\n"
                                "auto t = std::chrono::steady_clock::now();\n"
                                "long w = time(nullptr);\n");
  EXPECT_TRUE(HasFinding(findings, "R1", "rand"));
  EXPECT_TRUE(HasFinding(findings, "R1", "random_device"));
  EXPECT_TRUE(HasFinding(findings, "R1", "steady_clock"));
  EXPECT_TRUE(HasFinding(findings, "R1", "time"));
}

TEST(R1Test, QuietOutsideDeterministicDirsAndOnMemberCalls) {
  // src/ml is not a determinism-scoped directory.
  EXPECT_TRUE(LintOne("src/ml/x.cc", "int a = rand();\n").empty());
  // Member / foreign-qualified `time` is someone's API, not libc time().
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "double t = msg.time();\n"
                      "double u = sim->time();\n"
                      "double v = Clock::time();\n")
                  .empty());
  // `rand` as a bare identifier (not a call) stays quiet.
  EXPECT_TRUE(LintOne("src/sim/x.cc", "int rand = 3; int y = rand + 1;\n").empty());
}

TEST(R1Test, GetenvFlaggedEverywhereExceptSanctionedSite) {
  EXPECT_TRUE(
      HasFinding(LintOne("src/ml/x.cc", "const char* v = getenv(\"X\");\n"), "R1",
                 "getenv"));
  EXPECT_TRUE(
      HasFinding(LintOne("bench/x.cc", "const char* v = std::getenv(\"X\");\n"), "R1",
                 "getenv"));
  EXPECT_TRUE(
      LintOne("src/common/env.cc", "const char* v = std::getenv(\"X\");\n").empty());
}

// --- R2: unordered-container iteration ---------------------------------------------

TEST(R2Test, FlagsRangeForOverUnorderedMember) {
  const auto findings = LintOne("src/pubsub/x.cc",
                                "std::unordered_map<int, int> topics_;\n"
                                "void F() { for (auto& [k, v] : topics_) {} }\n");
  EXPECT_TRUE(HasFinding(findings, "R2", "topics_"));
}

TEST(R2Test, FlagsIteratorTraversal) {
  const auto findings =
      LintOne("src/dht/x.cc",
              "std::unordered_set<int> hosts_;\n"
              "void F() { for (auto it = hosts_.begin(); it != hosts_.end(); ++it) {} }\n");
  EXPECT_TRUE(HasFinding(findings, "R2", "hosts_"));
}

TEST(R2Test, AnnotationSuppressesTheFinding) {
  const auto same_line = LintOne(
      "src/pubsub/x.cc",
      "std::unordered_map<int, int> topics_;\n"
      "void F() { for (auto& [k, v] : topics_) {} }  // LINT: order-independent fold\n");
  EXPECT_TRUE(same_line.empty());
  const auto line_above = LintOne("src/pubsub/x.cc",
                                  "std::unordered_map<int, int> topics_;\n"
                                  "// LINT: order-independent pure max-fold\n"
                                  "void F() { for (auto& [k, v] : topics_) {} }\n");
  EXPECT_TRUE(line_above.empty());
}

TEST(R2Test, OrderedContainersAndLookupsStayQuiet) {
  EXPECT_TRUE(LintOne("src/pubsub/x.cc",
                      "std::map<int, int> topics_;\n"
                      "void F() { for (auto& [k, v] : topics_) {} }\n")
                  .empty());
  // find()/end() lookups on an unordered container are order-independent.
  EXPECT_TRUE(LintOne("src/pubsub/x.cc",
                      "std::unordered_map<int, int> topics_;\n"
                      "bool F() { return topics_.find(3) != topics_.end(); }\n")
                  .empty());
}

TEST(R2Test, ResolvesMembersThroughIncludeClosure) {
  const std::vector<SourceFile> files = {
      {"src/core/widget.h", "struct W { std::unordered_map<int, int> apps_; };\n"},
      {"src/core/widget.cc",
       "#include \"src/core/widget.h\"\n"
       "void W::F() { for (auto& [k, v] : apps_) {} }\n"}};
  const auto findings = RunLint(files, LintOptions());
  EXPECT_TRUE(HasFinding(findings, "R2", "apps_"));
}

TEST(R2Test, AmbiguousNameAcrossClosureStaysQuiet) {
  // `topics_` is unordered in one header and a vector in another; the loop file sees
  // both, so the lexer-level engine must not guess.
  const std::vector<SourceFile> files = {
      {"src/pubsub/a.h", "struct A { std::unordered_map<int, int> topics_; };\n"},
      {"src/faultsim/b.h", "struct B { std::vector<int> topics_; };\n"},
      {"src/faultsim/b.cc",
       "#include \"src/pubsub/a.h\"\n"
       "#include \"src/faultsim/b.h\"\n"
       "void B::F() { for (int t : topics_) {} }\n"}};
  EXPECT_TRUE(RunLint(files, LintOptions()).empty());
}

TEST(R2Test, ResolvesUsingAliases) {
  const auto findings = LintOne("src/bandit/x.cc",
                                "using ArmMap = std::unordered_map<int, double>;\n"
                                "ArmMap arms_;\n"
                                "void F() { for (auto& [k, v] : arms_) {} }\n");
  EXPECT_TRUE(HasFinding(findings, "R2", "arms_"));
}

// --- R3: pointer keys and pointer comparisons --------------------------------------

TEST(R3Test, FlagsPointerKeyedContainers) {
  const auto findings = LintOne("src/sim/x.cc",
                                "std::map<Event*, int> by_event_;\n"
                                "std::set<const Node*> nodes_;\n");
  EXPECT_TRUE(HasFinding(findings, "R3", "std::map<T*>"));
  EXPECT_TRUE(HasFinding(findings, "R3", "std::set<T*>"));
}

TEST(R3Test, PointerValuesAreFine) {
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "std::map<int, Event*> by_id_;\n"
                      "std::set<int> ids_;\n")
                  .empty());
}

TEST(R3Test, FlagsPointerComparisonFeedingOrder) {
  const auto findings = LintOne("src/sim/x.cc",
                                "void F(Node* a, Node* b) {\n"
                                "  if (a < b) { Swap(a, b); }\n"
                                "}\n");
  EXPECT_TRUE(HasFinding(findings, "R3", "a<b"));
  // Integer comparison with the same shape stays quiet.
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "void F(int a, int b) { if (a < b) { Swap(a, b); } }\n")
                  .empty());
}

// --- R4: metric naming and exactly-once registration -------------------------------

TEST(R4Test, FlagsBadMetricNames) {
  EXPECT_TRUE(HasFinding(
      LintOne("src/obs/x.cc", "GlobalMetrics().GetCounter(\"BadName\");\n"), "R4",
      "BadName"));
  EXPECT_TRUE(HasFinding(
      LintOne("src/obs/x.cc", "GlobalMetrics().GetCounter(\"engine\");\n"), "R4",
      "engine"));
  EXPECT_TRUE(HasFinding(
      LintOne("src/obs/x.cc", "GlobalMetrics().GetGauge(\"engine..latency\");\n"), "R4",
      "engine..latency"));
}

TEST(R4Test, AcceptsConventionalNamesAndComposedPrefixes) {
  EXPECT_TRUE(
      LintOne("src/obs/x.cc", "GlobalMetrics().GetHistogram(\"engine.round.duration_ms\");\n")
          .empty());
  // A literal ending in '.' composed with a runtime suffix is a prefix, not a name.
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "registry.GetGauge(\"net.drops.class.\" + suffix);\n")
                  .empty());
}

TEST(R4Test, FlagsDoubleRegistration) {
  const std::vector<SourceFile> files = {
      {"src/sim/a.cc", "GlobalMetrics().GetCounter(\"sim.events_fired\");\n"},
      {"src/core/b.cc", "GlobalMetrics().GetCounter(\"sim.events_fired\");\n"}};
  const auto findings = RunLint(files, LintOptions());
  EXPECT_TRUE(HasFinding(findings, "R4", "sim.events_fired"));
  // A single registration site is fine.
  EXPECT_TRUE(
      LintOne("src/sim/a.cc", "GlobalMetrics().GetCounter(\"sim.events_fired\");\n")
          .empty());
}

TEST(R4Test, KindClashIsReported) {
  const std::vector<SourceFile> files = {
      {"src/sim/a.cc", "GlobalMetrics().GetCounter(\"sim.events_fired\");\n"},
      {"src/core/b.cc", "GlobalMetrics().GetGauge(\"sim.events_fired\");\n"}};
  const auto findings = RunLint(files, LintOptions());
  ASSERT_TRUE(HasFinding(findings, "R4", "sim.events_fired"));
  const auto it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.rule == "R4";
  });
  EXPECT_NE(it->message.find("different kind"), std::string::npos);
}

// --- R5: bench binaries must emit a BenchReport ------------------------------------

TEST(R5Test, FlagsBenchWithoutBenchReport) {
  const auto findings = LintOne(
      "bench/bench_widget.cc",
      "int main() { std::printf(\"table only\\n\"); return 0; }\n");
  EXPECT_TRUE(HasFinding(findings, "R5", "BenchReport"));
}

TEST(R5Test, QuietWhenBenchReferencesBenchReport) {
  const auto findings = LintOne(
      "bench/bench_widget.cc",
      "#include \"src/obs/bench_report.h\"\n"
      "int main() { totoro::BenchReport report(\"widget\"); return report.Write() ? 0 : 1; }\n");
  EXPECT_FALSE(HasFinding(findings, "R5", "BenchReport"));
}

TEST(R5Test, QuietOnNonBenchFilesAndHelpers) {
  // Shared helpers (bench_util.h) and non-bench sources are out of scope.
  EXPECT_TRUE(LintOne("bench/bench_util.h", "int x;\n").empty());
  EXPECT_TRUE(LintOne("bench/tta_common.h", "int x;\n").empty());
  EXPECT_TRUE(LintOne("src/obs/export.cc", "int x;\n").empty());
}

TEST(R5Test, MentionInStringDoesNotCount) {
  // The identifier must appear as a token, not inside a string or comment.
  const auto findings = LintOne(
      "bench/bench_widget.cc",
      "int main() { std::printf(\"BenchReport goes here someday\\n\"); return 0; }\n");
  EXPECT_TRUE(HasFinding(findings, "R5", "BenchReport"));
}

// --- R6: committed baselines must be regenerated by CI ------------------------------

namespace {

// A minimal but structurally faithful workflow: a bench-telemetry job running some
// benches, followed by a sibling job that also mentions a bench (which must NOT
// satisfy R6 — only references inside bench-telemetry count).
constexpr char kWorkflow[] =
    "name: CI\n"
    "jobs:\n"
    "  verify:\n"
    "    steps:\n"
    "      - run: ctest\n"
    "  bench-telemetry:\n"
    "    steps:\n"
    "      - run: |\n"
    "          ./build/bench/bench_micro\n"
    "          ./build/bench/bench_fig8_fig9_tta\n"
    "  lint:\n"
    "    steps:\n"
    "      - run: ./build/bench/bench_orphan\n";

std::vector<Finding> LintBaselines(std::vector<std::string> baselines,
                                   std::string workflow) {
  LintOptions options;
  options.baseline_names = std::move(baselines);
  options.ci_workflow_text = std::move(workflow);
  return RunLint({{"src/obs/export.cc", "int x;\n"}}, options);
}

}  // namespace

TEST(R6Test, QuietWhenEveryBaselineBenchRunsInBenchTelemetry) {
  const auto findings =
      LintBaselines({"BENCH_micro.json", "BENCH_fig8_fig9_tta.json"}, kWorkflow);
  EXPECT_TRUE(findings.empty());
}

TEST(R6Test, FlagsBaselineWhoseBenchCiNeverRuns) {
  const auto findings = LintBaselines({"BENCH_micro.json", "BENCH_fig7_traffic.json"},
                                      kWorkflow);
  EXPECT_TRUE(HasFinding(findings, "R6", "bench_fig7_traffic"));
  EXPECT_FALSE(HasFinding(findings, "R6", "bench_micro"));
}

TEST(R6Test, MentionOutsideBenchTelemetryJobDoesNotCount) {
  // bench_orphan appears in the lint job, after bench-telemetry ended.
  const auto findings = LintBaselines({"BENCH_orphan.json"}, kWorkflow);
  EXPECT_TRUE(HasFinding(findings, "R6", "bench_orphan"));
}

TEST(R6Test, MissingBenchTelemetryJobIsItselfAFinding) {
  const auto findings = LintBaselines({"BENCH_micro.json"},
                                      "name: CI\njobs:\n  verify:\n    steps: []\n");
  EXPECT_TRUE(HasFinding(findings, "R6", "bench-telemetry"));
}

TEST(R6Test, InactiveWithoutBaselinesOrWorkflow) {
  EXPECT_TRUE(LintBaselines({}, kWorkflow).empty());
  EXPECT_TRUE(LintBaselines({"BENCH_micro.json"}, "").empty());
}

// --- R7: mutable static / thread_local state ---------------------------------------

TEST(R7Test, FlagsMutableStaticInShardDeterministicDirs) {
  const auto findings =
      LintOne("src/sim/x.cc", "void F() { static int hits = 0; ++hits; }\n");
  ASSERT_TRUE(HasFinding(findings, "R7", "hits"));
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.rule == "R7"; });
  EXPECT_NE(it->message.find("shared across shard workers"), std::string::npos);
}

TEST(R7Test, FlagsThreadLocalWithDistinctMessage) {
  const auto findings = LintOne(
      "src/pubsub/x.cc", "static thread_local uint64_t window_count = 0;\n");
  ASSERT_TRUE(HasFinding(findings, "R7", "window_count"));
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.rule == "R7"; });
  EXPECT_NE(it->message.find("forks its own"), std::string::npos);
}

TEST(R7Test, ConstantsAndFunctionsStayQuiet) {
  EXPECT_TRUE(LintOne("src/sim/x.cc", "static const int kMax = 3;\n").empty());
  EXPECT_TRUE(LintOne("src/sim/x.cc", "static constexpr double kEps = 0.5;\n").empty());
  // `(` before any terminator means a function, not state.
  EXPECT_TRUE(
      LintOne("src/sim/x.cc", "static int Helper(int a) { return a + 1; }\n").empty());
}

TEST(R7Test, QuietOutsideScopedDirs) {
  EXPECT_TRUE(LintOne("src/common/x.cc", "static int hits = 0;\n").empty());
  EXPECT_TRUE(LintOne("bench/x.cc", "static int hits = 0;\n").empty());
}

TEST(R7Test, SinkCacheInitializerIsSanctioned) {
  // The documented per-thread metrics-cache idiom: the initializer resolves through a
  // per-thread observability sink, so the cached pointer never crosses threads.
  EXPECT_TRUE(LintOne("src/fl/x.cc",
                      "void F() {\n"
                      "  static thread_local Counter* c =\n"
                      "      &GlobalMetrics().GetCounter(\"fl.rounds\");\n"
                      "  c->Increment(1);\n"
                      "}\n")
                  .empty());
}

TEST(R7Test, ThreadConfinedAnnotationSuppresses) {
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "// LINT: thread-confined one execution identity per thread\n"
                      "static thread_local int exec_id = 0;\n")
                  .empty());
}

// --- R8: host-protocol Start* entry points must wrap scheduling in RunAsHost --------

TEST(R8Test, FlagsStartMethodSchedulingOutsideHostContext) {
  const auto findings = LintOne("src/dht/x.cc",
                                "void PastryNode::StartKeepAlive() {\n"
                                "  sim_->Schedule(5.0, [this] { Tick(); });\n"
                                "}\n");
  EXPECT_TRUE(HasFinding(findings, "R8", "StartKeepAlive"));
}

TEST(R8Test, QuietWhenWrappedInRunAsHost) {
  EXPECT_TRUE(LintOne("src/pubsub/x.cc",
                      "void ScribeNode::StartMaintenance() {\n"
                      "  sim_->RunAsHost(id_, [this] {\n"
                      "    sim_->Schedule(5.0, [this] { Tick(); });\n"
                      "  });\n"
                      "}\n")
                  .empty());
}

TEST(R8Test, DeclarationsAndCallSitesStayQuiet) {
  // A declaration has no body to audit.
  EXPECT_TRUE(LintOne("src/dht/x.h", "void StartKeepAlive();\n").empty());
  // A call site is not a definition (preceded by statement punctuation or `.`).
  EXPECT_TRUE(LintOne("src/dht/x.cc",
                      "void F(PastryNode& n) { n.StartKeepAlive(); }\n")
                  .empty());
}

TEST(R8Test, NonStartMethodsAndOtherDirsStayQuiet) {
  // Ticks rescheduling from inside their own event run in host context already.
  EXPECT_TRUE(LintOne("src/dht/x.cc",
                      "void PastryNode::Tick() { sim_->Schedule(5.0, [] {}); }\n")
                  .empty());
  // src/fl is not a host-protocol directory.
  EXPECT_TRUE(LintOne("src/fl/x.cc",
                      "void Engine::StartRound() { sim_->Schedule(1.0, [] {}); }\n")
                  .empty());
}

TEST(R8Test, HostContextAnnotationSuppresses) {
  EXPECT_TRUE(LintOne("src/dht/x.cc",
                      "// LINT: host-context only called from inside a host event\n"
                      "void PastryNode::StartProbe() {\n"
                      "  sim_->Schedule(5.0, [] {});\n"
                      "}\n")
                  .empty());
}

// --- R9: explicit atomic access, one ordering discipline per member -----------------

TEST(R9Test, FlagsImplicitConversionReadAndImplicitStore) {
  const auto findings = LintOne("src/sim/x.cc",
                                "std::atomic<uint64_t> drops_{0};\n"
                                "uint64_t F() { return drops_; }\n"
                                "void G() { drops_ = 3; }\n");
  EXPECT_TRUE(HasFinding(findings, "R9", "drops_"));
}

TEST(R9Test, ExplicitConsistentAccessStaysQuiet) {
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "std::atomic<uint64_t> drops_{0};\n"
                      "void F() { drops_.fetch_add(1, std::memory_order_relaxed); }\n"
                      "uint64_t G() { return drops_.load(std::memory_order_relaxed); }\n")
                  .empty());
}

TEST(R9Test, MixedRelaxedAndSeqCstIsFlaggedAcrossFiles) {
  // The hot path is relaxed, the reader takes the seq_cst default: no coherent
  // ordering story. Flagged once per member, anchored at the seq_cst site.
  const std::vector<SourceFile> files = {
      {"src/sim/s.h",
       "struct S { std::atomic<uint64_t> spikes_; void F(); uint64_t G(); };\n"},
      {"src/sim/a.cc",
       "#include \"src/sim/s.h\"\n"
       "void S::F() { spikes_.fetch_add(1, std::memory_order_relaxed); }\n"},
      {"src/sim/b.cc",
       "#include \"src/sim/s.h\"\n"
       "uint64_t S::G() { return spikes_.load(); }\n"}};
  const auto findings = RunLint(files, LintOptions());
  ASSERT_TRUE(HasFinding(findings, "R9", "spikes_"));
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.rule == "R9"; });
  EXPECT_EQ(it->file, "src/sim/b.cc");
  EXPECT_NE(it->message.find("memory_order_relaxed"), std::string::npos);
}

TEST(R9Test, SnapshotPatternAndForeignQualifiedAccessStayQuiet) {
  // The sanctioned snapshot pattern (explicit load into a plain struct), plus a
  // same-named member reached through another object — qualified access is out of
  // scope for the lexer-level rule.
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "std::atomic<uint64_t> drops_{0};\n"
                      "struct Snap { uint64_t drops = 0; };\n"
                      "Snap F() {\n"
                      "  Snap out;\n"
                      "  out.drops = drops_.load(std::memory_order_relaxed);\n"
                      "  return out;\n"
                      "}\n"
                      "void G(Snap& other) { other.drops_ = 1; }\n")
                  .empty());
}

TEST(R9Test, UnrecognizedMemberAccessIsFlagged) {
  const auto findings = LintOne("src/sim/x.cc",
                                "std::atomic<uint64_t> drops_{0};\n"
                                "void F() { drops_.bump(); }\n");
  ASSERT_TRUE(HasFinding(findings, "R9", "drops_"));
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.rule == "R9"; });
  EXPECT_NE(it->message.find("unrecognized"), std::string::npos);
}

TEST(R9Test, AnnotationSuppressesAndScopeIsLimitedToSrc) {
  EXPECT_TRUE(
      LintOne("src/sim/x.cc",
              "std::atomic<uint64_t> drops_{0};\n"
              "// LINT: atomic-access-ok test shim reads the raw value\n"
              "uint64_t F() { return drops_; }\n")
          .empty());
  EXPECT_TRUE(LintOne("tools/lint/x.cc",
                      "std::atomic<uint64_t> drops_{0};\n"
                      "uint64_t F() { return drops_; }\n")
                  .empty());
}

TEST(R9Test, AllowlistAbsorbsNewRuleFindings) {
  // R7–R9 findings flow through the same allowlist machinery as R1–R6, so a budgeted
  // entry can absorb one while it is being fixed.
  const auto findings =
      LintOne("src/sim/x.cc", "void F() { static int hits = 0; ++hits; }\n");
  ASSERT_TRUE(HasFinding(findings, "R7", "hits"));
  std::vector<std::string> errors;
  auto entries = ParseAllowlist("R7 src/sim/x.cc hits\n", &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(FilterAllowed(findings, &entries).empty());
  EXPECT_TRUE(entries[0].used);
}

// --- R10: at most one Rng draw per argument list ------------------------------------

TEST(R10Test, FlagsTwoDrawsInOneArgumentList) {
  const auto findings = LintOne("src/dht/x.h",
                                "inline NodeId RandomNodeId(Rng& rng) {"
                                " return NodeId(rng.Next(), rng.Next()); }\n");
  ASSERT_TRUE(HasFinding(findings, "R10", "NodeId"));
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.rule == "R10"; });
  EXPECT_NE(it->message.find("unspecified"), std::string::npos);
  EXPECT_EQ(it->line, 1);
}

TEST(R10Test, FlagsDrawsSpreadOverLinesTemplateCallsAndNestedCalls) {
  // The shape of the old trainer construction: a nested call's draw plus a direct one,
  // across lines, in a template call's argument list.
  const auto findings = LintOne("src/core/x.cc",
                                "void F() {\n"
                                "  auto t = std::make_unique<LocalTrainer>(\n"
                                "      factory(rng_.Next()), std::move(shard),\n"
                                "      rng_->Uniform(0.0, 1.0));\n"
                                "}\n");
  ASSERT_TRUE(HasFinding(findings, "R10", "make_unique"));
  EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                          [](const Finding& f) { return f.rule == "R10"; }),
            1);
  // Two draws inside a parenthesized subexpression of one argument still count.
  EXPECT_TRUE(HasFinding(LintOne("bench/x.cc",
                                 "double d = std::max((rng.Gaussian() * 2.0 +"
                                 " rng.Exponential(1.0)), 0.0);\n"),
                         "R10", "max"));
}

TEST(R10Test, NestedListIsReportedOnceAtItsOwnCall) {
  const auto findings =
      LintOne("tools/x.cc", "void F() { Use(U128(rng.Next(), rng.NextBelow(4))); }\n");
  ASSERT_TRUE(HasFinding(findings, "R10", "U128"));
  EXPECT_FALSE(HasFinding(findings, "R10", "Use"));
}

TEST(R10Test, SequencedDrawsStayQuiet) {
  // Named locals, one draw per list, a draw inside a draw's own list, lambda bodies
  // and braced lists (both sequenced), and conditions of control statements.
  EXPECT_TRUE(LintOne("src/dht/x.h",
                      "inline NodeId RandomNodeId(Rng& rng) {\n"
                      "  const uint64_t lo = rng.Next();\n"
                      "  const uint64_t hi = rng.Next();\n"
                      "  return NodeId(hi, lo);\n"
                      "}\n")
                  .empty());
  EXPECT_TRUE(LintOne("src/ml/x.cc", "float v = Clamp(rng.Gaussian(0.0, 1.0), lo, hi);\n")
                  .empty());
  EXPECT_TRUE(LintOne("src/ml/x.cc", "uint64_t k = rng.NextBelow(rng.Next());\n").empty());
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "void F() {\n"
                      "  sim->Schedule(rng.Uniform(1.0, 2.0),\n"
                      "                [&] { a = rng.Next(); b = rng.Next(); });\n"
                      "  points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});\n"
                      "  if (rng.Bernoulli(0.5) && rng.Bernoulli(0.5)) { Go(); }\n"
                      "}\n")
                  .empty());
}

TEST(R10Test, QuietOutsideScopedDirsAndForOtherMethods) {
  EXPECT_TRUE(LintOne("tests/x.cc", "U128 id(rng.Next(), rng.Next());\n").empty());
  // Not an Rng draw: a free function and unrelated members named like none of them.
  EXPECT_TRUE(LintOne("src/sim/x.cc", "Pair p(Next(), Next()); F(it.Advance(), it.Peek());\n")
                  .empty());
}

// --- Self-audit: the real tree must be clean under R1–R10 ---------------------------

#ifdef TOTORO_REPO_ROOT

namespace {

bool ReadWholeFile(const std::filesystem::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

// Re-lints the committed tree in-process (same scan set as the totoro_lint binary,
// minus the R6 baseline/CI inputs) and checks that the allowlist absorbs every
// finding within its shrink budget. This is the library-level twin of the
// `totoro_lint_tree` ctest: it fails in the same commit that introduces a violation,
// with gtest-grade diagnostics.
TEST(SelfAuditTest, TreeIsCleanAndAllowlistWithinBudget) {
  namespace fs = std::filesystem;
  const fs::path root = TOTORO_REPO_ROOT;
  ASSERT_TRUE(fs::is_directory(root)) << root;
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "tools", "bench", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".hpp")) {
        continue;
      }
      SourceFile f;
      f.path = fs::relative(entry.path(), root).generic_string();
      ASSERT_TRUE(ReadWholeFile(entry.path(), &f.content)) << f.path;
      files.push_back(std::move(f));
    }
  }
  ASSERT_GT(files.size(), 50u) << "tree walk found suspiciously few files";

  const std::vector<Finding> findings = RunLint(files, LintOptions());

  std::string allow_text;
  ASSERT_TRUE(ReadWholeFile(root / "tools/lint/allow.txt", &allow_text));
  std::vector<std::string> errors;
  auto entries = ParseAllowlist(allow_text, &errors);
  EXPECT_TRUE(errors.empty());

  const std::vector<Finding> violations = FilterAllowed(findings, &entries);
  for (const Finding& f : violations) {
    ADD_FAILURE() << FormatFinding(f);
  }
  for (const AllowEntry& e : entries) {
    EXPECT_TRUE(e.used) << "unused allow entry: " << e.rule << " " << e.file << " "
                        << e.symbol << " — delete it and lower the budget";
  }

  std::string budget_text;
  ASSERT_TRUE(ReadWholeFile(root / "tools/lint/allow_budget.txt", &budget_text));
  const long budget = std::strtol(budget_text.c_str(), nullptr, 10);
  EXPECT_GT(budget, 0);
  EXPECT_LE(static_cast<long>(entries.size()), budget)
      << "the allowlist must shrink, never grow";
}

#endif  // TOTORO_REPO_ROOT

// --- Allowlist ---------------------------------------------------------------------

TEST(AllowlistTest, ParsesEntriesAndSkipsCommentsAndBlanks) {
  std::vector<std::string> errors;
  const auto entries = ParseAllowlist(
      "# header comment\n"
      "\n"
      "R1 src/sim/simulator.cc steady_clock  # wall-clock gauge\n"
      "R2 src/pubsub/scribe_node.cc topics_\n",
      &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "R1");
  EXPECT_EQ(entries[0].file, "src/sim/simulator.cc");
  EXPECT_EQ(entries[0].symbol, "steady_clock");
}

TEST(AllowlistTest, MalformedLinesAreErrors) {
  std::vector<std::string> errors;
  ParseAllowlist("R1 only_two_fields\n", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("allow.txt:1"), std::string::npos);
}

TEST(AllowlistTest, FilterMatchesRuleFileAndSymbol) {
  const std::vector<Finding> findings = {
      {"R1", "src/sim/simulator.cc", 14, "steady_clock", "m"},
      {"R1", "src/sim/simulator.cc", 57, "steady_clock", "m"},
      {"R1", "src/dht/pastry_node.cc", 9, "steady_clock", "m"},
  };
  std::vector<std::string> errors;
  auto entries =
      ParseAllowlist("R1 src/sim/simulator.cc steady_clock\n", &errors);
  const auto violations = FilterAllowed(findings, &entries);
  // One entry absorbs both simulator.cc findings; the pastry_node one survives.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].file, "src/dht/pastry_node.cc");
  EXPECT_TRUE(entries[0].used);
}

TEST(AllowlistTest, UnmatchedEntryStaysUnused) {
  std::vector<std::string> errors;
  auto entries = ParseAllowlist("R2 src/core/engine.cc apps_\n", &errors);
  const auto violations = FilterAllowed({}, &entries);
  EXPECT_TRUE(violations.empty());
  EXPECT_FALSE(entries[0].used);
}

// --- End-to-end formatting ---------------------------------------------------------

TEST(FormatTest, FindingFormatsAsFileLineRule) {
  const Finding f{"R2", "src/core/engine.cc", 78, "apps_", "range-for over ..."};
  EXPECT_EQ(FormatFinding(f), "src/core/engine.cc:78: [R2] range-for over ...");
}

}  // namespace
}  // namespace totoro::lint
