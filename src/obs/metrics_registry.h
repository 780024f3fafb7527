// Named metrics registry: counters, gauges, and fixed-bucket histograms.
//
// Protocol layers register series here instead of growing bespoke structs. Naming
// convention is `layer.object.unit` — e.g. `dht.route.hops`,
// `pubsub.broadcast.latency_ms`, `engine.round.duration_ms`, `bandit.path.regret`.
//
// Registration returns a stable reference that is never invalidated (the registry only
// ever resets values, never deletes series), so hot paths cache the pointer once:
//
//   static thread_local Histogram* hops =
//       &GlobalMetrics().GetHistogram("dht.route.hops", Histogram::HopCountBounds());
//   hops->Observe(env.hops);
//
// (thread_local because the registry itself is per-thread — see GlobalMetrics().)
//
// Everything is deterministic: iteration order is the series name order (std::map), and
// recording has no effect on simulation behaviour, so metrics stay on even in
// determinism tests. Exporters (JSON snapshot, CSV) live in export.h.
#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace totoro {

class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram. Bucket i counts observations v with v <= upper_bounds[i]
// (and > upper_bounds[i-1]); one implicit overflow bucket catches the rest. min/max/sum
// are tracked exactly, so Max()/Mean() are bucket-independent.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  // Buckets 0..num_buckets()-1; the last is the overflow bucket.
  size_t num_buckets() const { return bucket_counts_.size(); }
  uint64_t bucket_count(size_t i) const { return bucket_counts_.at(i); }
  // Upper bound of bucket i; infinity for the overflow bucket.
  double bucket_upper_bound(size_t i) const;
  const std::vector<double>& bounds() const { return bounds_; }

  // Quantile estimate by linear interpolation inside the containing bucket, clamped to
  // the exact [min, max]. q in [0, 1].
  double ApproxQuantile(double q) const;

  void Reset();

  // Folds another histogram's observations into this one. Bounds must match (CHECKed).
  // Summation order is caller-controlled, so deterministic folds (fixed shard order)
  // give bit-identical sums.
  void MergeFrom(const Histogram& other);

  // Exponential virtual-ms bounds 0.5 .. 65536 (covers one NIC hop to a long round).
  static std::vector<double> DefaultLatencyBoundsMs();
  // Small-integer bounds 0..32 for hop/fan-out style counts.
  static std::vector<double> HopCountBounds();

 private:
  std::vector<double> bounds_;          // Ascending upper bounds.
  std::vector<uint64_t> bucket_counts_; // bounds_.size() + 1 (overflow last).
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  // Get-or-create by name. For histograms the bounds apply only on first registration.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = Histogram::DefaultLatencyBoundsMs());

  // Lookup without creating; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Name-ordered views for exporters.
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const { return counters_; }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const { return gauges_; }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  // Zeroes every series but keeps registrations, so cached pointers stay valid.
  void ResetValues();

  // Folds `other` into this registry: counters add, histograms merge (bounds adopted on
  // first sight), gauges overwrite (last writer wins — callers merge shards in fixed
  // order). Series absent here are registered. `other` is untouched; the sharded
  // coordinator resets worker registries separately after each fold.
  void MergeFrom(const MetricsRegistry& other);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The thread-wide registry (series live for the thread's lifetime). Each thread gets
// its own instance so the parallel bench runner's per-thread trials never contend or
// interleave; single-threaded programs see exactly the old process-wide behaviour.
MetricsRegistry& GlobalMetrics();

}  // namespace totoro

#endif  // SRC_OBS_METRICS_REGISTRY_H_
