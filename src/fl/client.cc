#include "src/fl/client.h"

#include "src/common/check.h"

namespace totoro {

LocalTrainer::LocalTrainer(Dataset shard, double speed_factor, uint64_t seed)
    : shard_(std::move(shard)), speed_factor_(speed_factor), rng_(seed) {
  CHECK_GT(speed_factor_, 0.0);
}

LocalUpdate LocalTrainer::Train(Model& model, std::span<const float> global_weights,
                                const TrainConfig& config, const ComputeModel& compute,
                                const std::optional<DpConfig>& dp,
                                const std::optional<CompressionConfig>& compression) {
  CHECK_GT(shard_.size(), 0u);
  model.SetWeights(global_weights);
  last_loss_ = model.TrainLocal(shard_, config, rng_, global_weights);

  LocalUpdate update;
  update.weights = model.GetWeights();
  update.sample_weight = static_cast<double>(shard_.size());
  update.train_loss = last_loss_;
  update.compute_time_ms = compute.TrainTimeMs(
      model.NumParams(), config.batch_size * config.local_steps, speed_factor_);
  update.wire_bytes = model.WireBytes();

  if (dp.has_value()) {
    update.weights = ApplyDp(update.weights, global_weights, *dp, rng_);
  }
  if (compression.has_value() && compression->kind != CompressionKind::kNone) {
    CompressedUpdate compressed =
        CompressUpdate(update.weights, global_weights, *compression);
    // Reconstruct in place over the trained-weights buffer: the compressed form holds
    // everything needed, so no dense scratch vector is materialized on the send path.
    compressed.ReconstructInto(global_weights, update.weights);
    update.wire_bytes = compressed.wire_bytes;
  }
  return update;
}

}  // namespace totoro
