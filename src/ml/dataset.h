// Datasets and federated (non-IID) partitioning.
//
// Synthetic stand-ins for the paper's datasets keep the class structure and scale knobs:
// Google Speech (35 commands) and FEMNIST (62 classes) become class-conditional Gaussian
// mixtures in feature space (the "embedding after a frozen feature extractor" view), and
// per-client shards are drawn with a Dirichlet label-skew partitioner — the standard way
// to reproduce federated non-IID-ness when raw data is unavailable.
#ifndef SRC_ML_DATASET_H_
#define SRC_ML_DATASET_H_

#include <vector>

#include "src/common/rng.h"

namespace totoro {

struct Example {
  std::vector<float> x;
  int label = 0;
};

class Dataset {
 public:
  Dataset(int dim, int num_classes) : dim_(dim), num_classes_(num_classes) {}

  int dim() const { return dim_; }
  int num_classes() const { return num_classes_; }
  size_t size() const { return examples_.size(); }
  const Example& example(size_t i) const { return examples_[i]; }
  void Add(Example e);

  // Random sample of `n` indices (with replacement) for minibatching.
  std::vector<size_t> SampleBatch(size_t n, Rng& rng) const;

  // Moves the examples, in order, into datasets of `chunk_size` examples each (the
  // last may hold fewer).
  std::vector<Dataset> Split(size_t chunk_size) &&;

 private:
  int dim_;
  int num_classes_;
  std::vector<Example> examples_;
};

struct SyntheticSpec {
  int dim = 64;
  int num_classes = 10;
  // Distance between class means relative to within-class noise; larger = easier task.
  double class_separation = 2.2;
  double noise_stddev = 1.0;
  uint64_t seed = 1;
};

// Class-conditional Gaussian generator. All draws derive from spec.seed so train/test
// splits and every client shard share one consistent ground truth.
class SyntheticTask {
 public:
  explicit SyntheticTask(SyntheticSpec spec);

  Dataset Generate(size_t num_examples, Rng& rng) const;
  const SyntheticSpec& spec() const { return spec_; }

  // The paper's two evaluation tasks.
  static SyntheticSpec SpeechCommandsLike(uint64_t seed);  // 35 classes.
  static SyntheticSpec FemnistLike(uint64_t seed);         // 62 classes.
  static SyntheticSpec TextClassificationLike(uint64_t seed);  // Fig. 13 workload.

 private:
  SyntheticSpec spec_;
  std::vector<std::vector<float>> class_means_;
};

// Dirichlet label-skew partition: client i's class mix ~ Dir(alpha). Lower alpha means
// more skew (alpha -> inf recovers IID). Returns per-client datasets.
std::vector<Dataset> PartitionDirichlet(const Dataset& full, size_t num_clients, double alpha,
                                        Rng& rng);

}  // namespace totoro

#endif  // SRC_ML_DATASET_H_
