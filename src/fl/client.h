// Client-side local training: one worker's contribution to one FL round.
//
// A LocalTrainer owns a worker's data shard, speed factor and RNG, but no model: each
// round it borrows a replica of the app's model (the compute-pool slot's, see
// ModelReplicas in src/fl/compute_pool.h), loads the broadcast global weights into it,
// runs local minibatch SGD (optionally with the FedProx proximal term, gradient
// clipping + Gaussian noise for differential privacy, and update compression), and
// emits the update plus the virtual compute time the work costs on this device. The
// replica contract in src/ml/model.h makes the result independent of which replica,
// and of what it ran before.
#ifndef SRC_FL_CLIENT_H_
#define SRC_FL_CLIENT_H_

#include <optional>
#include <vector>

#include "src/fl/compression.h"
#include "src/fl/privacy.h"
#include "src/ml/model.h"

namespace totoro {

// Virtual-time cost model: training touches (params x examples) units of work; a
// device's speed factor converts work to milliseconds. Heterogeneous devices get
// different speed factors.
struct ComputeModel {
  // Work units (param-example products) processed per virtual ms at speed factor 1.0.
  double work_units_per_ms = 2.0e5;

  double TrainTimeMs(size_t params, size_t examples_processed, double speed_factor) const {
    return static_cast<double>(params) * static_cast<double>(examples_processed) /
           (work_units_per_ms * speed_factor);
  }
};

struct LocalUpdate {
  std::vector<float> weights;
  double sample_weight = 0.0;     // Shard size (FedAvg weighting).
  float train_loss = 0.0f;
  double compute_time_ms = 0.0;   // Virtual time the local round took.
  uint64_t wire_bytes = 0;        // After compression, if any.
};

class LocalTrainer {
 public:
  LocalTrainer(Dataset shard, double speed_factor, uint64_t seed);

  // Runs one local round on `model`, starting from `global_weights`.
  LocalUpdate Train(Model& model, std::span<const float> global_weights,
                    const TrainConfig& config, const ComputeModel& compute,
                    const std::optional<DpConfig>& dp = std::nullopt,
                    const std::optional<CompressionConfig>& compression = std::nullopt);

  const Dataset& shard() const { return shard_; }
  double speed_factor() const { return speed_factor_; }
  // Most recent local training loss; used by utility-based client selection.
  float last_loss() const { return last_loss_; }

 private:
  Dataset shard_;
  double speed_factor_;
  Rng rng_;
  float last_loss_ = 0.0f;
};

}  // namespace totoro

#endif  // SRC_FL_CLIENT_H_
