#include "src/fl/aggregation.h"

#include "src/common/check.h"

namespace totoro {
namespace {

// Sample-weighted mean of weight vectors, accumulated in double in Add order. Both
// FederatedAverage and the FedAvg combiner average through it, so they round alike.
class WeightedSum {
 public:
  void Add(std::span<const float> weights, double sample_weight) {
    CHECK_GT(sample_weight, 0.0);
    if (total_ == 0.0) {
      acc_.assign(weights.size(), 0.0);
    }
    CHECK_EQ(weights.size(), acc_.size());
    for (size_t i = 0; i < acc_.size(); ++i) {
      acc_[i] += sample_weight * static_cast<double>(weights[i]);
    }
    total_ += sample_weight;
  }

  bool empty() const { return total_ == 0.0; }

  std::vector<float> Mean() const {
    std::vector<float> out(acc_.size());
    for (size_t i = 0; i < acc_.size(); ++i) {
      out[i] = static_cast<float>(acc_[i] / total_);
    }
    return out;
  }

 private:
  std::vector<double> acc_;
  double total_ = 0.0;  // Positive once anything was added.
};

}  // namespace

std::vector<float> FederatedAverage(const std::vector<WeightedUpdate>& updates) {
  CHECK(!updates.empty());
  WeightedSum sum;
  for (const auto& u : updates) {
    sum.Add(u.weights, u.sample_weight);
  }
  return sum.Mean();
}

CombineFn MakeFedAvgCombiner() {
  return [](const std::vector<AggregationPiece>& pieces) {
    CHECK(!pieces.empty());
    WeightedSum sum;
    double total_weight = 0.0;
    uint64_t total_count = 0;
    for (const auto& p : pieces) {
      // Null-data pieces are the "nothing to contribute" acks of unselected workers;
      // they keep the tree barrier intact without affecting the average.
      if (p.data == nullptr) {
        CHECK_EQ(p.weight, 0.0);
        continue;
      }
      sum.Add(static_cast<const WeightsPayload*>(p.data.get())->weights, p.weight);
      total_weight += p.weight;
      total_count += p.count;
    }
    AggregationPiece out;
    if (!sum.empty()) {
      auto merged = std::make_shared<WeightsPayload>();
      merged->weights = sum.Mean();
      out.data = std::move(merged);
    }
    out.weight = total_weight;
    out.count = total_count;
    return out;
  };
}

CombineFn MakeCollectCombiner() {
  return [](const std::vector<AggregationPiece>& pieces) {
    CHECK(!pieces.empty());
    double total_weight = 0.0;
    uint64_t total_count = 0;
    auto merged = std::make_shared<UpdateListPayload>();
    for (const auto& p : pieces) {
      if (p.data == nullptr) {
        CHECK_EQ(p.weight, 0.0);
        continue;
      }
      const auto* payload = static_cast<const UpdateListPayload*>(p.data.get());
      CHECK_EQ(payload->ids.size(), payload->updates.size());
      for (size_t i = 0; i < payload->ids.size(); ++i) {
        // Insert keeping the id order; contributions arrive a handful at a time, so the
        // linear insertion stays cheap and the merged list is arrival-order independent.
        const uint64_t id = payload->ids[i];
        size_t pos = merged->ids.size();
        while (pos > 0 && merged->ids[pos - 1] > id) {
          --pos;
        }
        CHECK(pos == 0 || merged->ids[pos - 1] != id);  // No double submission.
        merged->ids.insert(merged->ids.begin() + static_cast<ptrdiff_t>(pos), id);
        merged->updates.insert(merged->updates.begin() + static_cast<ptrdiff_t>(pos),
                               payload->updates[i]);
      }
      total_weight += p.weight;
      total_count += p.count;
    }
    AggregationPiece out;
    if (!merged->ids.empty()) {
      out.data = std::move(merged);
    }
    out.weight = total_weight;
    out.count = total_count;
    return out;
  };
}

}  // namespace totoro
