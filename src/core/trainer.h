// Offline training (paper §3 "Offline Training", §4.3).
//
// Pipeline: preprocess -> initial grouping -> per-group hierarchical
// clustering (parallel across groups) -> template model. The trainer also
// returns the per-input-log leaf assignment from clustering, which backs
// the "w/ naive match" ablation and lets callers skip a matching pass
// over the training batch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.h"
#include "core/model.h"
#include "core/preprocess.h"
#include "core/variable_replacer.h"
#include "util/status.h"

namespace bytebrain {

/// End-to-end training configuration.
struct TrainerOptions {
  PreprocessOptions preprocess;
  ClusterOptions cluster;
  /// Initial-grouping prefix length k (paper default 0: length only).
  int prefix_k = 0;
  /// Threads for per-group clustering (groups are independent). The
  /// model does not depend on it.
  int num_threads = 1;
  /// Stop refining once a node reaches this saturation (1.0 = fully
  /// resolved, the paper's default behaviour).
  double saturation_stop = 1.0;
  /// Random sampling cap to avoid OOM on exceptionally large batches
  /// (§3); 0 disables sampling.
  size_t max_train_logs = 0;
  uint64_t seed = 42;
};

/// Training artifacts.
struct TrainOutput {
  TemplateModel model;
  /// assignments[i] = leaf template id for raw input log i
  /// (kInvalidTemplateId for logs dropped by sampling).
  std::vector<TemplateId> assignments;
  /// Preprocessing statistics (drives the Fig. 4 and Fig. 10 benches).
  size_t distinct_logs = 0;
  size_t total_logs = 0;
  uint64_t dictionary_bytes = 0;
};

/// Trains a template model over one batch of raw logs.
class Trainer {
 public:
  explicit Trainer(TrainerOptions options) : options_(std::move(options)) {}

  /// `replacer` must outlive the call. Empty input yields an empty model.
  /// The view overload is the core — views (e.g. into mmap'd storage
  /// segments) need only stay valid for the duration of the call; the
  /// string overload borrows views of its input.
  Result<TrainOutput> Train(const std::vector<std::string_view>& raw_logs,
                            const VariableReplacer& replacer) const;
  Result<TrainOutput> Train(const std::vector<std::string>& raw_logs,
                            const VariableReplacer& replacer) const;

  const TrainerOptions& options() const { return options_; }

 private:
  TrainerOptions options_;
};

}  // namespace bytebrain
