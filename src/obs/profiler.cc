#include "src/obs/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"

namespace totoro {

namespace {

// Phase names become metric-name segments (`profile.<path>.calls`), so they must obey
// the same grammar totoro_lint's R4 enforces for literal names.
bool ValidPhaseName(const char* name) {
  if (name == nullptr || name[0] < 'a' || name[0] > 'z') {
    return false;
  }
  for (const char* p = name; *p != '\0'; ++p) {
    const char c = *p;
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

void AppendF(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buffer,
                static_cast<size_t>(std::min(n, static_cast<int>(sizeof(buffer) - 1))));
  }
}

}  // namespace

Profiler::Profiler() : epoch_(std::chrono::steady_clock::now()) {
  enabled_ = EnvInt64("TOTORO_PROFILE", 0, 0) > 0;
  nodes_.push_back(PhaseNode{});  // Synthetic root: parent 0 (itself), depth 0.
}

double Profiler::WallSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

size_t Profiler::ChildNode(size_t parent, const std::string& name) {
  auto it = nodes_[parent].children.find(name);
  if (it != nodes_[parent].children.end()) {
    return it->second;
  }
  const size_t node = nodes_.size();
  PhaseNode fresh;
  fresh.name = name;
  fresh.parent = parent;
  fresh.depth = nodes_[parent].depth + 1;
  nodes_[parent].children.emplace(fresh.name, node);
  nodes_.push_back(std::move(fresh));
  return node;
}

void Profiler::Enter(const char* name) {
  CHECK(ValidPhaseName(name));
  const size_t parent = stack_.empty() ? 0 : stack_.back().node;
  const size_t node = ChildNode(parent, name);
  Frame frame;
  frame.node = node;
  frame.wall_start = WallSeconds();
  frame.virtual_start = clock_ != nullptr ? *clock_ : 0.0;
  frame.events_start = events_ != nullptr ? *events_ : 0;
  stack_.push_back(frame);
}

void Profiler::Exit() {
  CHECK(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  PhaseStats& stats = nodes_[frame.node].stats;
  stats.calls += 1;
  stats.wall_seconds += WallSeconds() - frame.wall_start;
  if (clock_ != nullptr) {
    stats.virtual_ms += *clock_ - frame.virtual_start;
  }
  if (events_ != nullptr) {
    stats.events += *events_ - frame.events_start;
  }
}

const Profiler::PhaseNode* Profiler::Find(const std::string& path) const {
  size_t node = 0;
  size_t start = 0;
  while (start <= path.size()) {
    const size_t dot = path.find('.', start);
    const std::string segment =
        path.substr(start, dot == std::string::npos ? std::string::npos : dot - start);
    auto it = nodes_[node].children.find(segment);
    if (it == nodes_[node].children.end()) {
      return nullptr;
    }
    node = it->second;
    if (dot == std::string::npos) {
      break;
    }
    start = dot + 1;
  }
  return &nodes_[node];
}

std::string Profiler::PathOf(size_t index) const {
  CHECK_LT(index, nodes_.size());
  std::string path;
  while (index != 0) {
    path = path.empty() ? nodes_[index].name : nodes_[index].name + "." + path;
    index = nodes_[index].parent;
  }
  return path;
}

// Pre-order walk in child-name order so every export is deterministic.
namespace {
void WalkPreOrder(const std::vector<Profiler::PhaseNode>& nodes, size_t index,
                  const std::function<void(size_t)>& visit) {
  if (index != 0) {
    visit(index);
  }
  for (const auto& [name, child] : nodes[index].children) {
    (void)name;
    WalkPreOrder(nodes, child, visit);
  }
}
}  // namespace

void Profiler::PublishToMetrics(MetricsRegistry* registry) const {
  WalkPreOrder(nodes_, 0, [this, registry](size_t index) {
    const PhaseNode& node = nodes_[index];
    const std::string prefix = "profile." + PathOf(index);
    registry->GetCounter(prefix + ".calls").Increment(node.stats.calls);
    registry->GetGauge(prefix + ".virtual_ms").Set(node.stats.virtual_ms);
    registry->GetGauge(prefix + ".events").Set(static_cast<double>(node.stats.events));
  });
}

std::string Profiler::ReportText() const {
  std::string out;
  out.append("phase                                   calls      wall_s   virtual_ms      events\n");
  WalkPreOrder(nodes_, 0, [this, &out](size_t index) {
    const PhaseNode& node = nodes_[index];
    std::string label(static_cast<size_t>(node.depth - 1) * 2, ' ');
    label += node.name;
    AppendF(&out, "%-36s %10" PRIu64 " %11.4f %12.3f %11" PRIu64 "\n", label.c_str(),
            node.stats.calls, node.stats.wall_seconds, node.stats.virtual_ms,
            node.stats.events);
  });
  return out;
}

std::string Profiler::ToJson() const {
  std::string out("{\"phases\":{");
  bool first = true;
  WalkPreOrder(nodes_, 0, [this, &out, &first](size_t index) {
    const PhaseNode& node = nodes_[index];
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("\"");
    out.append(JsonEscape(PathOf(index)));
    AppendF(&out,
            "\":{\"calls\":%" PRIu64 ",\"wall_seconds\":%.6f,\"virtual_ms\":%.6f,"
            "\"events\":%" PRIu64 "}",
            node.stats.calls, node.stats.wall_seconds, node.stats.virtual_ms,
            node.stats.events);
  });
  out.append("}}");
  return out;
}

void Profiler::Reset() {
  CHECK(stack_.empty());
  nodes_.clear();
  nodes_.push_back(PhaseNode{});
}

void Profiler::MergeSubtree(const Profiler& other, size_t src, size_t dst) {
  for (const auto& [name, src_child] : other.nodes_[src].children) {
    const size_t dst_child = ChildNode(dst, name);
    const PhaseStats& in = other.nodes_[src_child].stats;
    PhaseStats& out = nodes_[dst_child].stats;
    out.calls += in.calls;
    out.wall_seconds += in.wall_seconds;
    out.virtual_ms += in.virtual_ms;
    out.events += in.events;
    MergeSubtree(other, src_child, dst_child);
  }
}

void Profiler::MergeFrom(const Profiler& other, size_t under) {
  CHECK(other.stack_.empty());  // A phase still open on another thread can't fold.
  CHECK_LT(under, nodes_.size());
  MergeSubtree(other, 0, under);
}

namespace {
// LINT: thread-confined the running thread's ProfileCapture target, set and reset by it.
thread_local Profiler* captured_profiler = nullptr;
}  // namespace

Profiler& GlobalProfiler() {
  // LINT: thread-confined this IS the per-thread sink; folds run with workers parked.
  static thread_local Profiler profiler;
  return captured_profiler != nullptr ? *captured_profiler : profiler;
}

ProfileCapture::ProfileCapture(Profiler* target) : previous_(captured_profiler) {
  if (target != nullptr) {
    captured_profiler = target;
  }
}

ProfileCapture::~ProfileCapture() { captured_profiler = previous_; }

}  // namespace totoro
