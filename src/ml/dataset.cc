#include "src/ml/dataset.h"

#include "src/common/check.h"

namespace totoro {

void Dataset::Add(Example e) {
  CHECK_EQ(static_cast<int>(e.x.size()), dim_);
  CHECK_GE(e.label, 0);
  CHECK_LT(e.label, num_classes_);
  examples_.push_back(std::move(e));
}

std::vector<size_t> Dataset::SampleBatch(size_t n, Rng& rng) const {
  CHECK_GT(size(), 0u);
  std::vector<size_t> idx(n);
  for (auto& i : idx) {
    i = static_cast<size_t>(rng.NextBelow(size()));
  }
  return idx;
}

std::vector<Dataset> Dataset::Split(size_t chunk_size) && {
  CHECK_GT(chunk_size, 0u);
  std::vector<Dataset> chunks;
  for (size_t i = 0; i < examples_.size(); ++i) {
    if (i % chunk_size == 0) {
      chunks.emplace_back(dim_, num_classes_);
    }
    chunks.back().examples_.push_back(std::move(examples_[i]));
  }
  examples_.clear();
  return chunks;
}

SyntheticTask::SyntheticTask(SyntheticSpec spec) : spec_(spec) {
  CHECK_GT(spec_.dim, 0);
  CHECK_GT(spec_.num_classes, 1);
  Rng rng(spec_.seed ^ 0x5EEDD00Dull);
  class_means_.resize(static_cast<size_t>(spec_.num_classes));
  for (auto& mean : class_means_) {
    mean.resize(static_cast<size_t>(spec_.dim));
    for (auto& v : mean) {
      v = static_cast<float>(rng.Gaussian(0.0, spec_.class_separation));
    }
  }
}

Dataset SyntheticTask::Generate(size_t num_examples, Rng& rng) const {
  Dataset ds(spec_.dim, spec_.num_classes);
  for (size_t i = 0; i < num_examples; ++i) {
    Example e;
    e.label = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(spec_.num_classes)));
    e.x.resize(static_cast<size_t>(spec_.dim));
    const auto& mean = class_means_[static_cast<size_t>(e.label)];
    for (int d = 0; d < spec_.dim; ++d) {
      e.x[static_cast<size_t>(d)] = mean[static_cast<size_t>(d)] +
                                    static_cast<float>(rng.Gaussian(0.0, spec_.noise_stddev));
    }
    ds.Add(std::move(e));
  }
  return ds;
}

SyntheticSpec SyntheticTask::SpeechCommandsLike(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 64;  // MFCC-embedding width.
  spec.num_classes = 35;
  spec.class_separation = 1.4;  // Middle-scale difficulty: 53% target is non-trivial.
  spec.noise_stddev = 2.2;
  spec.seed = seed;
  return spec;
}

SyntheticSpec SyntheticTask::FemnistLike(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 64;
  spec.num_classes = 62;
  spec.class_separation = 1.8;
  spec.noise_stddev = 1.6;
  spec.seed = seed;
  return spec;
}

SyntheticSpec SyntheticTask::TextClassificationLike(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 32;
  spec.num_classes = 4;
  spec.class_separation = 2.0;
  spec.noise_stddev = 1.2;
  spec.seed = seed;
  return spec;
}

std::vector<Dataset> PartitionDirichlet(const Dataset& full, size_t num_clients, double alpha,
                                        Rng& rng) {
  CHECK_GT(num_clients, 0u);
  std::vector<Dataset> shards;
  shards.reserve(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    shards.emplace_back(full.dim(), full.num_classes());
  }
  // Per-client class mixing proportions.
  std::vector<std::vector<double>> mix(num_clients);
  for (auto& m : mix) {
    m = rng.Dirichlet(alpha, full.num_classes());
  }
  // Assign each example to a client weighted by that client's affinity for its label.
  for (size_t i = 0; i < full.size(); ++i) {
    const Example& e = full.example(i);
    std::vector<double> weights(num_clients);
    for (size_t c = 0; c < num_clients; ++c) {
      weights[c] = mix[c][static_cast<size_t>(e.label)];
    }
    const size_t client = rng.WeightedIndex(weights);
    shards[client].Add(e);
  }
  return shards;
}

}  // namespace totoro
