// totoro_lint driver: walks the source tree, runs the R1–R10 rule engine, applies the
// allowlist, and exits nonzero on any unallowlisted finding, unused allow entry, or
// allowlist-budget overrun.
//
// Usage:
//   totoro_lint --root <repo> [--allow <file>] [--budget <file>] [dir ...]
//
// Default scan set (relative to --root): src tools bench examples. Only .h/.cc/.cpp
// files are read. Exit codes: 0 clean, 1 violations, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/allowlist.h"
#include "tools/lint/rules.h"

namespace fs = std::filesystem;
using totoro::lint::AllowEntry;
using totoro::lint::Finding;
using totoro::lint::SourceFile;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string allow_path;
  std::string budget_path;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "totoro_lint: %s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--allow") {
      allow_path = next("--allow");
    } else if (arg == "--budget") {
      budget_path = next("--budget");
    } else if (arg == "--help") {
      std::printf(
          "usage: totoro_lint --root <repo> [--allow <file>] [--budget <file>] "
          "[dir ...]\n");
      return 0;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) {
    dirs = {"src", "tools", "bench", "examples"};
  }

  std::vector<SourceFile> files;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !HasLintableExtension(entry.path())) {
        continue;
      }
      SourceFile f;
      f.path = fs::relative(entry.path(), root).generic_string();
      if (!ReadFile(entry.path(), &f.content)) {
        std::fprintf(stderr, "totoro_lint: cannot read %s\n",
                     entry.path().string().c_str());
        return 2;
      }
      files.push_back(std::move(f));
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "totoro_lint: no source files found under %s\n", root.c_str());
    return 2;
  }

  totoro::lint::LintOptions options;
  // R6 inputs: committed baseline filenames and the CI workflow text. Neither lives
  // in the lexed source set, so the driver loads them here; missing files simply
  // leave the rule inactive (a tree without baselines has nothing to check).
  const fs::path baselines = fs::path(root) / options.baselines_dir;
  if (fs::is_directory(baselines)) {
    for (const auto& entry : fs::directory_iterator(baselines)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json") {
        options.baseline_names.push_back(name);
      }
    }
    std::sort(options.baseline_names.begin(), options.baseline_names.end());
  }
  const fs::path ci_workflow = fs::path(root) / options.ci_workflow_path;
  if (fs::exists(ci_workflow) && !ReadFile(ci_workflow, &options.ci_workflow_text)) {
    std::fprintf(stderr, "totoro_lint: cannot read %s\n",
                 ci_workflow.string().c_str());
    return 2;
  }

  const std::vector<Finding> findings = totoro::lint::RunLint(files, options);

  std::vector<AllowEntry> entries;
  int errors = 0;
  if (!allow_path.empty()) {
    std::string text;
    if (!ReadFile(allow_path, &text)) {
      std::fprintf(stderr, "totoro_lint: cannot read allowlist %s\n",
                   allow_path.c_str());
      return 2;
    }
    std::vector<std::string> parse_errors;
    entries = totoro::lint::ParseAllowlist(text, &parse_errors);
    for (const std::string& e : parse_errors) {
      std::fprintf(stderr, "totoro_lint: %s\n", e.c_str());
      ++errors;
    }
  }

  const std::vector<Finding> violations =
      totoro::lint::FilterAllowed(findings, &entries);
  for (const Finding& f : violations) {
    std::fprintf(stderr, "%s\n", totoro::lint::FormatFinding(f).c_str());
    ++errors;
  }
  for (const AllowEntry& e : entries) {
    if (!e.used) {
      std::fprintf(stderr,
                   "allow.txt:%d: unused entry (%s %s %s) — the finding is fixed; "
                   "delete the entry and lower the budget\n",
                   e.line, e.rule.c_str(), e.file.c_str(), e.symbol.c_str());
      ++errors;
    }
  }

  if (!budget_path.empty()) {
    std::string text;
    if (!ReadFile(budget_path, &text)) {
      std::fprintf(stderr, "totoro_lint: cannot read budget %s\n", budget_path.c_str());
      return 2;
    }
    const long budget = std::strtol(text.c_str(), nullptr, 10);
    if (static_cast<long>(entries.size()) > budget) {
      std::fprintf(stderr,
                   "allowlist grew: %zu entries > budget %ld (%s). The allowlist must "
                   "shrink, not grow — fix the new finding instead.\n",
                   entries.size(), budget, budget_path.c_str());
      ++errors;
    }
  }

  if (errors > 0) {
    std::fprintf(stderr, "totoro_lint: %d problem(s), %zu finding(s) allowlisted\n",
                 errors, findings.size() - violations.size());
    return 1;
  }
  std::printf("totoro_lint: clean (%zu files, %zu allowlisted finding(s))\n",
              files.size(), findings.size());
  return 0;
}
