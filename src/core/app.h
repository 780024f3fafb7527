// FL application descriptor and per-application results.
#ifndef SRC_CORE_APP_H_
#define SRC_CORE_APP_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dht/node_id.h"
#include "src/fl/client.h"
#include "src/fl/robust.h"
#include "src/ml/model.h"

namespace totoro {

using ModelFactory = std::function<std::unique_ptr<Model>(uint64_t seed)>;

// Everything an application owner specifies when launching an FL application: the model,
// training hyper-parameters, stopping rule, and per-application FL policies (privacy,
// compression) — Totoro's application-specific customization (§4.4).
// Asynchronous communication protocol (the "asynchronous" option of §2.2.1): workers
// route updates straight to the master, which folds each one in with
// w <- (1 - alpha) * w + alpha * w_update and re-broadcasts a fresh model after every
// `rebroadcast_every` updates (FedAsync-style with buffered re-broadcast).
struct AsyncConfig {
  float mix_alpha = 0.3f;
  size_t rebroadcast_every = 4;
  // Staleness-aware semi-async merging (FedBuff / Totoro+ style): an update trained
  // against a model `s` re-broadcasts old mixes with
  //   alpha_eff = mix_alpha / (1 + s)^staleness_exponent
  // 0 (default) disables the discount and reproduces plain FedAsync mixing.
  double staleness_exponent = 0.0;
};

enum class SelectionPolicy { kAll, kRandom, kOortLike };

struct FlAppConfig {
  std::string name;
  std::string creator_key = "creator-pk";
  std::string salt = "salt-0";
  ModelFactory model_factory;
  TrainConfig train;
  double target_accuracy = 2.0;  // > 1 disables early stop (run max_rounds).
  size_t max_rounds = 20;
  std::optional<DpConfig> dp;
  std::optional<CompressionConfig> compression;
  // Participant selection (§4.3: "Application owner can specify her client selection
  // function"): how many subscribers train per round, and how they are picked. 0 = all.
  size_t participants_per_round = 0;
  SelectionPolicy selection = SelectionPolicy::kAll;
  // When set, the application runs the asynchronous protocol instead of synchronous
  // tree-aggregated rounds. max_rounds then caps the number of model re-broadcasts.
  std::optional<AsyncConfig> async;
  // Secure aggregation (pairwise additive masking, src/fl/secure_agg.h): interior tree
  // nodes only ever see masked sums; the root unmasks and finalizes, applying dropout
  // correction when a straggler deadline cut part of the cohort. Synchronous protocol
  // only; requires >= 2 workers (and participants_per_round != 1 when selecting).
  bool secure_aggregation = false;
  // Byzantine-robust aggregation (src/fl/robust.h). When rule != kNone the tree
  // *collects* individual updates (MakeCollectCombiner) and the root applies the robust
  // reduction once over the full list; non-finite updates are dropped before reduction.
  // Synchronous protocol only; mutually exclusive with secure_aggregation (a masked
  // update has no meaningful per-contributor norm or coordinate order statistics).
  RobustConfig robust;
};

struct AccuracyPoint {
  double time_ms = 0.0;
  uint64_t round = 0;
  double accuracy = 0.0;
};

struct AppResult {
  std::string name;
  NodeId topic;
  bool reached_target = false;
  double time_to_target_ms = 0.0;  // Virtual ms from launch to hitting target accuracy.
  double total_time_ms = 0.0;      // Virtual ms from launch to completion.
  uint64_t rounds_completed = 0;
  double final_accuracy = 0.0;
  std::vector<AccuracyPoint> curve;
};

// The stopping rule every engine applies after evaluating a round: appends the curve
// point, sets rounds_completed and final_accuracy, and stamps time_to_target_ms the first
// time `accuracy` reaches config.target_accuracy. Returns true when the app stops (target
// reached or config.max_rounds run), having stamped total_time_ms. `elapsed_ms` is the
// virtual time since launch.
bool RecordRound(const FlAppConfig& config, double elapsed_ms, uint64_t round,
                 double accuracy, AppResult* result);

// Heterogeneity mapping of §7.5: a physical node with 2^k cores hosts k logical P2P
// nodes (2 cores -> 1, 4 -> 2, 8 -> 3), so resource-rich devices absorb more overlay
// load.
int VirtualNodeCount(int cpu_cores);

}  // namespace totoro

#endif  // SRC_CORE_APP_H_
