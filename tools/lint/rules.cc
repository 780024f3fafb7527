#include "tools/lint/rules.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace totoro::lint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool UnderDir(const std::string& path, const std::string& dir) {
  return StartsWith(path, dir + "/") || path == dir;
}

bool InDirs(const std::string& path, const std::vector<std::string>& dirs) {
  return std::any_of(dirs.begin(), dirs.end(),
                     [&](const std::string& d) { return UnderDir(path, d); });
}

bool InDeterminismDirs(const std::string& path, const LintOptions& options) {
  return InDirs(path, options.determinism_dirs);
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

// True when tokens[i] (an identifier) is written as a member access (`x.f`, `x->f`) or
// a qualified name whose outermost namespace is not `std` (`Clock::time` stays quiet,
// `std::chrono::steady_clock` does not). Used by the free-function / clock checks.
bool IsMemberOrForeignQualified(const std::vector<Token>& toks, size_t i) {
  if (i == 0) {
    return false;
  }
  const Token& prev = toks[i - 1];
  if (prev.kind == TokenKind::kPunct && (prev.text == "." || prev.text == "->")) {
    return true;
  }
  if (prev.kind == TokenKind::kPunct && prev.text == "::") {
    // Walk to the head of the `a::b::c` chain and test whether it starts at std.
    size_t j = i;
    while (j >= 2 && toks[j - 1].kind == TokenKind::kPunct && toks[j - 1].text == "::" &&
           toks[j - 2].kind == TokenKind::kIdentifier) {
      j -= 2;
    }
    return !IsIdent(toks[j], "std");
  }
  return false;
}

bool NextIs(const std::vector<Token>& toks, size_t i, const char* punct) {
  return i + 1 < toks.size() && toks[i + 1].kind == TokenKind::kPunct &&
         toks[i + 1].text == punct;
}

// Skips a balanced <...> starting at the `<` at index i; returns the index one past the
// closing `>`, or toks.size() when unbalanced.
size_t SkipAngles(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) {
      continue;
    }
    if (toks[i].text == "<") {
      ++depth;
    } else if (toks[i].text == ">") {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (toks[i].text == ";") {
      break;  // Unbalanced (comparison, not a template argument list); bail out.
    }
  }
  return toks.size();
}

bool HasAnnotation(const LexedFile& lexed, int line, const std::string& tag) {
  for (int l : {line, line - 1}) {
    auto it = lexed.annotations.find(l);
    if (it != lexed.annotations.end() && StartsWith(it->second, tag)) {
      return true;
    }
  }
  return false;
}

// --- R2 support: unordered-container name collection -------------------------------

struct UnorderedNames {
  std::set<std::string> variables;  // Declared unordered_{map,set} variables/members.
  std::set<std::string> aliases;    // `using X = std::unordered_map<...>` aliases.
  // Names also declared with some other template type anywhere in the include closure
  // (`std::vector<NodeId> topics_` next to scribe's unordered `topics_`). Such a name
  // is ambiguous at lexer level, so R2 stays quiet on it rather than false-positive.
  std::set<std::string> otherwise_typed;
};

void CollectUnorderedNames(const LexedFile& lexed, UnorderedNames* out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "unordered_map") || IsIdent(toks[i], "unordered_set"))) {
      continue;
    }
    if (!NextIs(toks, i, "<")) {
      continue;  // Bare mention (e.g. in a comment-stripped include) — nothing declared.
    }
    const size_t after = SkipAngles(toks, i + 1);
    // Step back over an `std::` qualifier, then look for `using Alias =` before it.
    size_t q = i;
    if (q >= 2 && toks[q - 1].kind == TokenKind::kPunct && toks[q - 1].text == "::" &&
        IsIdent(toks[q - 2], "std")) {
      q -= 2;
    }
    const bool is_alias = q >= 3 && toks[q - 1].kind == TokenKind::kPunct &&
                          toks[q - 1].text == "=" &&
                          toks[q - 2].kind == TokenKind::kIdentifier &&
                          IsIdent(toks[q - 3], "using");
    if (is_alias) {
      out->aliases.insert(toks[q - 2].text);
      continue;
    }
    if (after < toks.size() && toks[after].kind == TokenKind::kIdentifier) {
      out->variables.insert(toks[after].text);
    }
  }
}

// Declarations through collected aliases (`Alias name;` / `Alias name =`). Runs after
// every closure file contributed its aliases, so header-defined aliases resolve in .cc
// files regardless of traversal order.
void CollectAliasUses(const LexedFile& lexed, UnorderedNames* out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdentifier && out->aliases.count(toks[i].text) &&
        toks[i + 1].kind == TokenKind::kIdentifier &&
        !IsMemberOrForeignQualified(toks, i)) {
      out->variables.insert(toks[i + 1].text);
    }
  }
}

// Collects `SomeTemplate<...> name` declarations whose template is neither an
// unordered container nor a known unordered alias, to veto ambiguous names.
void CollectOtherwiseTypedNames(const LexedFile& lexed, UnorderedNames* out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        toks[i].text == "unordered_map" || toks[i].text == "unordered_set" ||
        out->aliases.count(toks[i].text) || !NextIs(toks, i, "<")) {
      continue;
    }
    const size_t after = SkipAngles(toks, i + 1);
    if (after + 1 >= toks.size() || toks[after].kind != TokenKind::kIdentifier) {
      continue;
    }
    const Token& trail = toks[after + 1];
    if (trail.kind == TokenKind::kPunct &&
        (trail.text == ";" || trail.text == "=" || trail.text == "," ||
         trail.text == ")" || trail.text == "{")) {
      out->otherwise_typed.insert(toks[after].text);
    }
  }
}

// --- R3 support: raw-pointer local collection --------------------------------------

// Heuristic `Type* name` / `auto* name` declarations. The preceding-token check keeps
// multiplications inside larger expressions (`x = a * b`) out of the set.
std::set<std::string> CollectPointerNames(const LexedFile& lexed) {
  std::set<std::string> out;
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!(toks[i].kind == TokenKind::kPunct && toks[i].text == "*")) {
      continue;
    }
    if (toks[i - 1].kind != TokenKind::kIdentifier ||
        toks[i + 1].kind != TokenKind::kIdentifier) {
      continue;
    }
    // After the declared name we expect `;`, `=`, `,`, `)`, or a range-for `:`.
    if (i + 2 < toks.size()) {
      const Token& after = toks[i + 2];
      if (!(after.kind == TokenKind::kPunct &&
            (after.text == ";" || after.text == "=" || after.text == "," ||
             after.text == ")" || after.text == ":"))) {
        continue;
      }
    }
    // Before the type we expect a statement/parameter boundary, not an expression.
    if (i >= 2) {
      const Token& before = toks[i - 2];
      const bool boundary =
          (before.kind == TokenKind::kPunct &&
           (before.text == ";" || before.text == "{" || before.text == "}" ||
            before.text == "(" || before.text == "," || before.text == ">")) ||
          IsIdent(before, "const") || IsIdent(before, "constexpr") ||
          IsIdent(before, "static");
      if (!boundary) {
        continue;
      }
    }
    out.insert(toks[i + 1].text);
  }
  return out;
}

// --- Rules -------------------------------------------------------------------------

void CheckR1(const std::string& path, const LexedFile& lexed, const LintOptions& options,
             std::vector<Finding>* findings) {
  const bool deterministic = InDeterminismDirs(path, options);
  const bool env_sanctioned = StartsWith(path, options.env_sanctioned_prefix);
  const std::vector<Token>& toks = lexed.tokens;
  static const std::set<std::string> kAlwaysBad = {
      "random_device",         "srand",        "gettimeofday",
      "system_clock",          "steady_clock", "high_resolution_clock",
      "clock_gettime",         "timespec_get", "rand_r"};
  static const std::set<std::string> kBadCalls = {"rand", "time", "clock"};
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) {
      continue;
    }
    if (t.text == "getenv" && !env_sanctioned && NextIs(toks, i, "(") &&
        !IsMemberOrForeignQualified(toks, i)) {
      findings->push_back({"R1", path, t.line, "getenv",
                           "direct getenv() call; route environment reads through "
                           "totoro::Env* in src/common/env.h"});
      continue;
    }
    if (!deterministic) {
      continue;
    }
    if (kAlwaysBad.count(t.text) && !IsMemberOrForeignQualified(toks, i)) {
      findings->push_back({"R1", path, t.line, t.text,
                           "nondeterminism source `" + t.text +
                               "` in a deterministic-simulation directory; use the "
                               "seeded totoro::Rng or virtual time (Simulator::Now)"});
      continue;
    }
    if (kBadCalls.count(t.text) && NextIs(toks, i, "(") &&
        !IsMemberOrForeignQualified(toks, i)) {
      findings->push_back({"R1", path, t.line, t.text,
                           "call to `" + t.text +
                               "()` in a deterministic-simulation directory; use the "
                               "seeded totoro::Rng or virtual time (Simulator::Now)"});
    }
  }
}

void CheckR2(const std::string& path, const LexedFile& lexed,
             const UnorderedNames& names, const LintOptions& options,
             std::vector<Finding>* findings) {
  if (!InDeterminismDirs(path, options)) {
    return;
  }
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression terminates in an unordered container name.
    if (IsIdent(toks[i], "for") && NextIs(toks, i, "(")) {
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].kind != TokenKind::kPunct) {
          continue;
        }
        if (toks[j].text == "(") {
          ++depth;
        } else if (toks[j].text == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (toks[j].text == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon != 0 && close != 0 && close > colon + 1) {
        const Token& last = toks[close - 1];
        if (last.kind == TokenKind::kIdentifier && names.variables.count(last.text) &&
            !HasAnnotation(lexed, toks[i].line, "order-independent")) {
          findings->push_back(
              {"R2", path, toks[i].line, last.text,
               "range-for over unordered container `" + last.text +
                   "`; iteration order is hash-dependent — use an ordered container "
                   "or annotate the loop `// LINT: order-independent <why>`"});
        }
      }
      continue;
    }
    // Iterator-style traversal: `name.begin()` / `name.cbegin()`.
    if (toks[i].kind == TokenKind::kIdentifier && names.variables.count(toks[i].text) &&
        i + 2 < toks.size() && toks[i + 1].kind == TokenKind::kPunct &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        (IsIdent(toks[i + 2], "begin") || IsIdent(toks[i + 2], "cbegin")) &&
        NextIs(toks, i + 2, "(") &&
        !HasAnnotation(lexed, toks[i].line, "order-independent")) {
      findings->push_back(
          {"R2", path, toks[i].line, toks[i].text,
           "iterator traversal of unordered container `" + toks[i].text +
               "`; iteration order is hash-dependent — use an ordered container or "
               "annotate the line `// LINT: order-independent <why>`"});
    }
  }
}

void CheckR3(const std::string& path, const LexedFile& lexed, const LintOptions& options,
             std::vector<Finding>* findings) {
  if (!InDeterminismDirs(path, options)) {
    return;
  }
  const std::vector<Token>& toks = lexed.tokens;
  // Pointer-keyed ordered containers: std::map<T*, ...> / std::set<T*>.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "map") || IsIdent(toks[i], "set"))) {
      continue;
    }
    if (!(i >= 2 && toks[i - 1].text == "::" && IsIdent(toks[i - 2], "std"))) {
      continue;
    }
    if (!NextIs(toks, i, "<")) {
      continue;
    }
    // First template argument: tokens from i+2 until a `,` or the closing `>` at depth 1.
    int depth = 1;
    size_t last = 0;
    for (size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
      if (toks[j].kind == TokenKind::kPunct) {
        if (toks[j].text == "<") {
          ++depth;
        } else if (toks[j].text == ">") {
          --depth;
        } else if (toks[j].text == "," && depth == 1) {
          break;
        }
      }
      if (depth > 0) {
        last = j;
      }
    }
    if (last != 0 && toks[last].kind == TokenKind::kPunct && toks[last].text == "*") {
      findings->push_back(
          {"R3", path, toks[i].line, "std::" + toks[i].text + "<T*>",
           "pointer-keyed std::" + toks[i].text +
               "; pointer order is allocator-dependent — key by a stable id instead"});
    }
  }
  // Relational comparison between two raw-pointer locals.
  const std::set<std::string> ptrs = CollectPointerNames(lexed);
  if (ptrs.empty()) {
    return;
  }
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kPunct ||
        !(t.text == "<" || t.text == ">" || t.text == "<=" || t.text == ">=")) {
      continue;
    }
    if (toks[i - 1].kind == TokenKind::kIdentifier && ptrs.count(toks[i - 1].text) &&
        toks[i + 1].kind == TokenKind::kIdentifier && ptrs.count(toks[i + 1].text) &&
        !HasAnnotation(lexed, t.line, "pointer-order-ok")) {
      findings->push_back(
          {"R3", path, t.line, toks[i - 1].text + t.text + toks[i + 1].text,
           "relational comparison of raw pointers `" + toks[i - 1].text + "` and `" +
               toks[i + 1].text +
               "`; pointer order is allocator-dependent and must not feed scheduling"});
    }
  }
}

bool ValidMetricName(const std::string& name, bool is_prefix) {
  size_t segments = 0;
  size_t start = 0;
  while (start <= name.size()) {
    const size_t dot = name.find('.', start);
    const std::string seg =
        name.substr(start, dot == std::string::npos ? std::string::npos : dot - start);
    if (seg.empty()) {
      // Only a trailing empty segment of a composed prefix is allowed.
      return is_prefix && dot == std::string::npos && segments >= 1;
    }
    if (!(seg[0] >= 'a' && seg[0] <= 'z')) {
      return false;
    }
    for (char c : seg) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
        return false;
      }
    }
    ++segments;
    if (dot == std::string::npos) {
      break;
    }
    start = dot + 1;
  }
  return segments >= 2;
}

struct MetricSite {
  std::string kind;  // GetCounter / GetGauge / GetHistogram.
  std::string file;
  int line;
};

void CheckR4(const std::vector<std::pair<std::string, const LexedFile*>>& files,
             const LintOptions& options, std::vector<Finding>* findings) {
  std::map<std::string, std::vector<MetricSite>> sites;  // Full names only.
  for (const auto& [path, lexed] : files) {
    if (!StartsWith(path, options.metric_dir)) {
      continue;
    }
    const std::vector<Token>& toks = lexed->tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!(IsIdent(toks[i], "GetCounter") || IsIdent(toks[i], "GetGauge") ||
            IsIdent(toks[i], "GetHistogram"))) {
        continue;
      }
      if (!NextIs(toks, i, "(") || toks[i + 2].kind != TokenKind::kString) {
        continue;  // API declaration or a dynamic name; nothing checkable here.
      }
      const std::string& name = toks[i + 2].text;
      const bool is_prefix =
          i + 3 < toks.size() && toks[i + 3].kind == TokenKind::kPunct &&
          toks[i + 3].text == "+";
      if (!ValidMetricName(name, is_prefix)) {
        findings->push_back(
            {"R4", path, toks[i + 2].line, name,
             "metric name `" + name +
                 "` violates the `layer.noun_verb` convention (lowercase "
                 "dot-separated [a-z][a-z0-9_]* segments, >= 2 segments)"});
      }
      if (!is_prefix) {
        sites[name].push_back({toks[i].text, path, toks[i + 2].line});
      }
    }
  }
  for (const auto& [name, regs] : sites) {
    if (regs.size() <= 1) {
      continue;
    }
    for (size_t k = 1; k < regs.size(); ++k) {
      const bool kind_clash = regs[k].kind != regs[0].kind;
      findings->push_back(
          {"R4", regs[k].file, regs[k].line, name,
           "metric `" + name + "` already registered at " + regs[0].file + ":" +
               std::to_string(regs[0].line) +
               (kind_clash ? " with a different kind (" + regs[0].kind + " vs " +
                                 regs[k].kind + ")"
                           : "; register once and cache the returned pointer")});
    }
  }
}

// R5: every bench binary fills a BenchReport so tools/benchdiff can gate it. A lexer-
// level identifier check is enough — the type has no reason to be named except to
// construct or receive one, and benches use the explicit type name (never `auto`).
void CheckR5(const std::string& path, const LexedFile& lexed, const LintOptions& options,
             std::vector<Finding>* findings) {
  if (!StartsWith(path, options.bench_prefix) || !EndsWith(path, ".cc")) {
    return;
  }
  for (const Token& t : lexed.tokens) {
    if (IsIdent(t, "BenchReport")) {
      return;
    }
  }
  findings->push_back({"R5", path, 1, "BenchReport",
                       "bench binary never references BenchReport; emit BENCH_<name>."
                       "json via src/obs/bench_report.h so tools/benchdiff can gate "
                       "regressions (no ASCII-only benches)"});
}

// R6: every committed bench baseline must be kept honest by CI. The driver hands us
// the baseline filenames and the raw workflow text; we slice out the bench-telemetry
// job (from its key to the next two-space-indented job key) and require the
// producing binary name bench_<name> to appear inside it. Purely textual — the same
// trade-off as the rest of the engine: no YAML parser, heuristics plus an allowlist.
void CheckR6(const LintOptions& options, std::vector<Finding>* findings) {
  if (options.baseline_names.empty() || options.ci_workflow_text.empty()) {
    return;
  }
  const std::string& text = options.ci_workflow_text;
  const size_t begin = text.find("\n  bench-telemetry:");
  if (begin == std::string::npos) {
    findings->push_back({"R6", options.ci_workflow_path, 1, "bench-telemetry",
                         "baselines are committed in " + options.baselines_dir +
                             " but the workflow has no bench-telemetry job to "
                             "regenerate and gate them"});
    return;
  }
  // End of the job: the next line that is exactly two-space indented (a sibling job
  // key). Step lines inside the job are indented four or more.
  size_t end = text.size();
  for (size_t pos = text.find('\n', begin + 1); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    if (pos + 3 < text.size() && text[pos + 1] == ' ' && text[pos + 2] == ' ' &&
        text[pos + 3] != ' ' && text[pos + 3] != '\n' && text[pos + 3] != '#') {
      end = pos;
      break;
    }
  }
  const std::string job = text.substr(begin, end - begin);
  for (const std::string& baseline : options.baseline_names) {
    // "BENCH_micro.json" -> "bench_micro".
    const std::string stem = baseline.substr(6, baseline.size() - 6 - 5);
    const std::string bench = "bench_" + stem;
    if (job.find(bench) == std::string::npos) {
      findings->push_back(
          {"R6", options.baselines_dir + "/" + baseline, 1, bench,
           "committed baseline is never regenerated by CI: run `" + bench +
               "` in the bench-telemetry job of " + options.ci_workflow_path +
               " (or delete the baseline)"});
    }
  }
}

// --- R7: mutable static / thread_local state ---------------------------------------

// True when the declaration's initializer (tokens from `from` to the next `;`) resolves
// through a per-thread observability sink. `static thread_local Counter* c =
// &GlobalMetrics().GetCounter(...)` is the documented cache idiom: each thread re-runs
// the initializer against its OWN registry, so the cached pointer never crosses
// threads and the coordinator fold stays exact. Anything else static is suspect.
bool InitializerIsSinkCache(const std::vector<Token>& toks, size_t from) {
  for (size_t j = from; j < toks.size(); ++j) {
    if (toks[j].kind == TokenKind::kPunct && toks[j].text == ";") {
      break;
    }
    if (IsIdent(toks[j], "GlobalMetrics") || IsIdent(toks[j], "GlobalTracer") ||
        IsIdent(toks[j], "GlobalProfiler")) {
      return true;
    }
  }
  return false;
}

// R7: the PR 9 bug class. A mutable `static` in a shard-deterministic directory is
// shared across worker threads (a race); a `static thread_local` silently forks one
// copy per worker, so its value depends on the shard layout and K=4 diverges from
// K=1. Both are invisible at the call site, which is why review kept missing them.
void CheckR7(const std::string& path, const LexedFile& lexed, const LintOptions& options,
             std::vector<Finding>* findings) {
  if (!InDirs(path, options.mutable_static_dirs)) {
    return;
  }
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "static") || IsIdent(toks[i], "thread_local"))) {
      continue;
    }
    bool thread_local_seen = IsIdent(toks[i], "thread_local");
    size_t j = i + 1;
    while (j < toks.size() &&
           (IsIdent(toks[j], "static") || IsIdent(toks[j], "thread_local"))) {
      thread_local_seen = thread_local_seen || IsIdent(toks[j], "thread_local");
      ++j;
    }
    // Walk the declaration to its first structural terminator. `(` first means a
    // function declaration/definition (static member helpers) — not state at all.
    bool is_const = false;
    std::string name;
    char term = 0;
    size_t term_index = toks.size();
    for (size_t k = j; k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "const" || t.text == "constexpr" || t.text == "constinit") {
          is_const = true;
        } else {
          name = t.text;
        }
        continue;
      }
      if (t.kind == TokenKind::kPunct &&
          (t.text == ";" || t.text == "=" || t.text == "{" || t.text == "(" ||
           t.text == "}")) {
        term = t.text[0];
        term_index = k;
        break;
      }
    }
    i = j - 1;  // Never re-match the same storage-class run.
    if (term == 0 || term == '(' || term == '}' || name.empty() || is_const) {
      continue;
    }
    if ((term == '=' || term == '{') && InitializerIsSinkCache(toks, term_index)) {
      continue;
    }
    if (HasAnnotation(lexed, toks[i].line, "thread-confined")) {
      continue;
    }
    findings->push_back(
        {"R7", path, toks[i].line, name,
         thread_local_seen
             ? "mutable `thread_local` state `" + name +
                   "` in a shard-deterministic directory: each worker forks its own "
                   "copy, so values depend on the shard layout (K=4 diverges from "
                   "K=1) — move the state onto the owning object, or annotate "
                   "`// LINT: thread-confined <why>`"
             : "mutable `static` state `" + name +
                   "` in a shard-deterministic directory: shared across shard "
                   "workers, so access races and the result depends on thread "
                   "interleaving — move the state onto the owning object, or "
                   "annotate `// LINT: thread-confined <why>`"});
  }
}

// --- R8: host-protocol entry points must schedule in host context -------------------

// `Start…` methods (StartKeepAlive, StartMaintenance, …) are called from harness /
// driver code, OUTSIDE any host event. A bare Schedule there lands the timer chain on
// the sharded engine's control stream: its event keys are allocated in harness call
// order, not the host's canonical order, and the whole replay stops being
// shard-layout-blind. Wrapping in RunAsHost(host, …) joins the host's stream. Ticks
// that reschedule from INSIDE their own event already run in host context, and live
// in plain (non-Start) methods, so the rule only bites the entry points.
void CheckR8(const std::string& path, const LexedFile& lexed, const LintOptions& options,
             std::vector<Finding>* findings) {
  if (!InDirs(path, options.host_protocol_dirs)) {
    return;
  }
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 1; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier || t.text.size() < 6 ||
        t.text.compare(0, 5, "Start") != 0 || t.text[5] < 'A' || t.text[5] > 'Z' ||
        !NextIs(toks, i, "(")) {
      continue;
    }
    // Definitions only: preceded by a return type or `Class::` qualifier. Call sites
    // sit after statement punctuation (`;`, `{`) or inside expressions (`(`, `.`).
    const Token& prev = toks[i - 1];
    const bool def_shape =
        prev.kind == TokenKind::kIdentifier ||
        (prev.kind == TokenKind::kPunct &&
         (prev.text == "::" || prev.text == "*" || prev.text == "&" || prev.text == ">"));
    if (!def_shape) {
      continue;
    }
    // Parameter list, then trailing qualifiers, then `{` (a `;` is a declaration).
    int depth = 0;
    size_t k = i + 1;
    for (; k < toks.size(); ++k) {
      if (toks[k].kind != TokenKind::kPunct) {
        continue;
      }
      if (toks[k].text == "(") {
        ++depth;
      } else if (toks[k].text == ")" && --depth == 0) {
        ++k;
        break;
      }
    }
    size_t body = 0;
    for (; k < toks.size(); ++k) {
      if (toks[k].kind != TokenKind::kPunct) {
        continue;  // const / noexcept / override.
      }
      if (toks[k].text == "{") {
        body = k;
      }
      break;
    }
    if (body == 0) {
      continue;  // Declaration, or something the heuristic cannot shape-match.
    }
    bool schedules = false;
    bool runs_as_host = false;
    depth = 0;
    for (k = body; k < toks.size(); ++k) {
      if (toks[k].kind == TokenKind::kPunct) {
        if (toks[k].text == "{") {
          ++depth;
        } else if (toks[k].text == "}" && --depth == 0) {
          break;
        }
        continue;
      }
      if (toks[k].kind != TokenKind::kIdentifier || !NextIs(toks, k, "(")) {
        continue;
      }
      if (toks[k].text == "Schedule" || toks[k].text == "ScheduleAt") {
        schedules = true;
      } else if (toks[k].text == "RunAsHost") {
        runs_as_host = true;
      }
    }
    if (schedules && !runs_as_host && !HasAnnotation(lexed, t.line, "host-context")) {
      findings->push_back(
          {"R8", path, t.line, t.text,
           "host-protocol entry point `" + t.text +
               "` schedules events without RunAsHost: called from harness code, the "
               "timer chain lands on the sharded engine's control stream and its "
               "event keys depend on driver call order — wrap the scheduling in "
               "sim->RunAsHost(host, …) (or annotate `// LINT: host-context <why>` "
               "if the method is only ever called from inside a host event)"});
    }
  }
}

// --- R9: explicit atomic access, one ordering discipline per member -----------------

// Declared `std::atomic<…> name` member/variable names in one file.
void CollectAtomicNames(const LexedFile& lexed, std::set<std::string>* out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "atomic") || !NextIs(toks, i, "<")) {
      continue;
    }
    const size_t after = SkipAngles(toks, i + 1);
    if (after < toks.size() && toks[after].kind == TokenKind::kIdentifier) {
      out->insert(toks[after].text);
    }
  }
}

struct AtomicOrderSite {
  std::string file;
  int line = 0;
};

// First-seen site per (member, memory order); "seq_cst" covers both explicit
// memory_order_seq_cst and order-less calls (the default).
using AtomicOrderMap = std::map<std::string, std::map<std::string, AtomicOrderSite>>;

// R9: atomics are only honest when every access says what it is. An implicit
// conversion read (`uint64_t n = dropped_;`) or `=` store is a hidden seq_cst access:
// it dodges the snapshot discipline (explicit load() into a by-value stats struct)
// and silently mixes with the relaxed fetch_adds on the hot path. The cross-file
// mixed-order check catches the second half of that bug even when each site is
// individually explicit.
void CheckR9(const std::string& path, const LexedFile& lexed,
             const std::set<std::string>& atomic_names, const LintOptions& options,
             std::vector<Finding>* findings, AtomicOrderMap* orders) {
  if (atomic_names.empty() || !StartsWith(path, options.atomic_scope_prefix)) {
    return;
  }
  static const std::set<std::string> kOrderedOps = {
      "load",          "store",         "exchange",
      "fetch_add",     "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",     "compare_exchange_weak",
      "compare_exchange_strong",        "wait"};
  static const std::set<std::string> kOrderlessOps = {"notify_one", "notify_all",
                                                      "is_lock_free"};
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier || !atomic_names.count(t.text)) {
      continue;
    }
    if (i > 0 && toks[i - 1].kind == TokenKind::kPunct) {
      const std::string& p = toks[i - 1].text;
      if (p == ">") {
        continue;  // The declaration itself: `std::atomic<T> name…`.
      }
      if (p == "." || p == "->" || p == "::" || p == "&") {
        // Qualified access on some other object (likely a same-named non-atomic
        // field of a by-value snapshot struct), or address-of; out of scope.
        continue;
      }
    }
    if (HasAnnotation(lexed, t.line, "atomic-access-ok")) {
      continue;
    }
    const bool member_call =
        i + 2 < toks.size() && toks[i + 1].kind == TokenKind::kPunct &&
        toks[i + 1].text == "." && toks[i + 2].kind == TokenKind::kIdentifier &&
        NextIs(toks, i + 2, "(");
    if (!member_call) {
      findings->push_back(
          {"R9", path, t.line, t.text,
           "implicit access to atomic member `" + t.text +
               "`: conversion reads and `=` stores hide a seq_cst operation — use "
               "explicit .load()/.store() (snapshot paths load into a by-value "
               "stats struct)"});
      continue;
    }
    const std::string& op = toks[i + 2].text;
    if (kOrderlessOps.count(op)) {
      continue;
    }
    if (!kOrderedOps.count(op)) {
      findings->push_back({"R9", path, t.line, t.text,
                           "unrecognized member access `." + op +
                               "` on atomic member `" + t.text +
                               "`; use the explicit std::atomic API"});
      continue;
    }
    // Memory orders in the call's argument list; none means the seq_cst default.
    bool any_order = false;
    int depth = 0;
    for (size_t k = i + 3; k < toks.size(); ++k) {
      if (toks[k].kind == TokenKind::kPunct) {
        if (toks[k].text == "(") {
          ++depth;
        } else if (toks[k].text == ")" && --depth == 0) {
          break;
        }
        continue;
      }
      if (toks[k].kind == TokenKind::kIdentifier &&
          StartsWith(toks[k].text, "memory_order_")) {
        any_order = true;
        (*orders)[t.text].emplace(toks[k].text.substr(13),
                                  AtomicOrderSite{path, t.line});
      }
    }
    if (!any_order) {
      (*orders)[t.text].emplace("seq_cst", AtomicOrderSite{path, t.line});
    }
  }
}

// Emitted once after every file was scanned: a member whose call sites mix relaxed
// with (explicit or defaulted) seq_cst has no coherent ordering story.
void FlagMixedAtomicOrders(const AtomicOrderMap& orders,
                           std::vector<Finding>* findings) {
  for (const auto& [name, by_order] : orders) {
    auto relaxed = by_order.find("relaxed");
    auto seq_cst = by_order.find("seq_cst");
    if (relaxed == by_order.end() || seq_cst == by_order.end()) {
      continue;
    }
    findings->push_back(
        {"R9", seq_cst->second.file, seq_cst->second.line, name,
         "atomic member `" + name + "` mixes memory_order_relaxed (" +
             relaxed->second.file + ":" + std::to_string(relaxed->second.line) +
             ") with seq_cst at this site; pick one ordering discipline per member"});
  }
}

// --- R10: at most one Rng draw per argument list ------------------------------------

// A call to one of Rng's drawing methods (src/common/rng.h): `x.Next(`, `x->Uniform(`.
bool IsRngDraw(const std::vector<Token>& toks, size_t i) {
  static const std::set<std::string> kDraws = {"Next",      "NextBelow", "UniformInt",
                                                "NextDouble", "Uniform",   "Bernoulli",
                                                "Gaussian",  "Exponential", "Geometric"};
  return i > 0 && toks[i].kind == TokenKind::kIdentifier && kDraws.count(toks[i].text) &&
         toks[i - 1].kind == TokenKind::kPunct &&
         (toks[i - 1].text == "." || toks[i - 1].text == "->") && NextIs(toks, i, "(");
}

// The name a `(` at toks[open] calls: the identifier before it, or before the
// template argument list it follows (`make_unique<T>(`); empty for a parenthesized
// expression or a control-statement condition.
std::string CalleeName(const std::vector<Token>& toks, size_t open) {
  static const std::set<std::string> kNotCalls = {
      "if",       "while", "for",      "switch", "return",   "sizeof",
      "alignof",  "catch", "decltype", "throw",  "noexcept", "co_return"};
  if (open == 0) {
    return "";
  }
  size_t i = open - 1;
  if (toks[i].kind == TokenKind::kPunct && toks[i].text == ">") {
    int depth = 0;
    for (;; --i) {
      if (toks[i].kind == TokenKind::kPunct && toks[i].text == ">") {
        ++depth;
      } else if (toks[i].kind == TokenKind::kPunct && toks[i].text == "<" && --depth == 0) {
        break;
      }
      if (i == 0) {
        return "";
      }
    }
    if (i == 0) {
      return "";
    }
    --i;
  }
  if (toks[i].kind != TokenKind::kIdentifier || kNotCalls.count(toks[i].text)) {
    return "";
  }
  return toks[i].text;
}

// R10: C++ leaves the evaluation order of a call's arguments unspecified (GCC goes
// right to left, clang left to right), so two Rng draws in one argument list land in
// a compiler-dependent order and a clang build replays a different world. Counted per
// argument list: a nested call's list counts as one draw in its parent (it is checked
// on its own), a parenthesized subexpression adds its draws, and braces add none (a
// lambda body or a braced list is sequenced).
void CheckR10(const std::string& path, const LexedFile& lexed, const LintOptions& options,
              std::vector<Finding>* findings) {
  if (!InDirs(path, options.rng_order_dirs)) {
    return;
  }
  struct Group {
    char close = ')';    // ')' or '}'.
    std::string callee;  // Non-empty for an argument list.
    int line = 0;
    int draws = 0;
  };
  const std::vector<Token>& toks = lexed.tokens;
  std::vector<Group> open;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (IsRngDraw(toks, i)) {
      if (!open.empty()) {
        ++open.back().draws;
      }
      continue;
    }
    if (t.kind != TokenKind::kPunct) {
      continue;
    }
    if (t.text == "(") {
      open.push_back({')', CalleeName(toks, i), t.line});
    } else if (t.text == "{") {
      open.push_back({'}', "", t.line});
    } else if ((t.text == ")" || t.text == "}") && !open.empty() &&
               open.back().close == t.text[0]) {
      const Group group = open.back();
      open.pop_back();
      int carried = 0;
      if (group.close == ')' && group.callee.empty()) {
        carried = group.draws;
      } else if (group.close == ')') {
        carried = std::min(group.draws, 1);
        if (group.draws >= 2) {
          findings->push_back(
              {"R10", path, group.line, group.callee,
               "argument list of `" + group.callee + "` holds " +
                   std::to_string(group.draws) +
                   " Rng draws; C++ leaves the order of argument evaluation unspecified "
                   "(GCC goes right to left, clang left to right), so the values depend "
                   "on the compiler — draw into named locals first"});
        }
      }
      if (!open.empty()) {
        open.back().draws += carried;
      }
    }
  }
}

}  // namespace

std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                             const LintOptions& options) {
  // Lex everything once; files double as include-resolution sources.
  std::map<std::string, LexedFile> lexed;
  for (const SourceFile& f : files) {
    lexed.emplace(f.path, Lex(f.content));
  }

  std::vector<Finding> findings;
  std::vector<std::pair<std::string, const LexedFile*>> lexed_list;
  lexed_list.reserve(lexed.size());
  for (const auto& [path, lf] : lexed) {
    lexed_list.emplace_back(path, &lf);
  }

  AtomicOrderMap atomic_orders;
  for (const auto& [path, lf] : lexed) {
    CheckR1(path, lf, options, &findings);
    CheckR3(path, lf, options, &findings);
    CheckR5(path, lf, options, &findings);
    CheckR7(path, lf, options, &findings);
    CheckR8(path, lf, options, &findings);
    CheckR10(path, lf, options, &findings);

    // R2 needs the unordered names of this file plus its transitive project includes.
    std::set<std::string> visited;
    std::vector<std::string> frontier = {path};
    std::vector<const LexedFile*> closure;
    while (!frontier.empty()) {
      const std::string cur = frontier.back();
      frontier.pop_back();
      if (!visited.insert(cur).second) {
        continue;
      }
      auto it = lexed.find(cur);
      if (it == lexed.end()) {
        continue;  // System header or a file outside the scanned set.
      }
      closure.push_back(&it->second);
      for (const std::string& inc : it->second.quoted_includes) {
        frontier.push_back(inc);
      }
    }
    UnorderedNames names;
    for (const LexedFile* f : closure) {
      CollectUnorderedNames(*f, &names);
    }
    for (const LexedFile* f : closure) {
      CollectAliasUses(*f, &names);
      CollectOtherwiseTypedNames(*f, &names);
    }
    // Ambiguously-typed names (same identifier declared with another template type
    // somewhere in the closure) are dropped rather than risk a false positive.
    for (const std::string& name : names.otherwise_typed) {
      names.variables.erase(name);
    }
    CheckR2(path, lf, names, options, &findings);

    // R9 resolves atomic members through the same include closure (declared in the
    // header, used in the .cc), accumulating per-member orders across all files.
    std::set<std::string> atomic_names;
    for (const LexedFile* f : closure) {
      CollectAtomicNames(*f, &atomic_names);
    }
    CheckR9(path, lf, atomic_names, options, &findings, &atomic_orders);
  }

  CheckR4(lexed_list, options, &findings);
  CheckR6(options, &findings);
  FlagMixedAtomicOrders(atomic_orders, &findings);

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.rule < b.rule;
  });
  return findings;
}

std::string FormatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
}

}  // namespace totoro::lint
