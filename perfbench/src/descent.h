// The layer descent of a traced run: the traced pass's recorded inputs
// replayed down the stack, one layer's public entry point at a time,
// on topics in the same state (same config, same set-up prefix):
//   1. wire round trip (NetClient → TcpServer → ... → ack);
//   2. ServiceFrontend::Dispatch on the same frames;
//   3. ManagedTopic::IngestBatch / QueryGroups on the same batch / page;
//   4. ByteBrainParser::MatchAll(..., 1) against a model trained on the
//      same prefix, and PrepareRetrain on the TrainNow window;
//   5. a standalone LogTopic with the same StorageConfig (AppendBatch,
//      then WaitDurable);
//   6. ReplPull round trips and a fresh follower's Replicator rebuild.
// A layer's self time is its call minus the layer below it.
#pragma once

#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One timed call into a layer, for the trace file.
struct LayerSpan {
  std::string layer;
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct DescentResult {
  std::vector<LayerMetric> metrics;
  std::vector<LayerSpan> spans;
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs the descent against the server of the traced pass `pass`.
DescentResult RunDescent(const WorkloadSpec& spec, const Inputs& inputs,
                         Service* service, const PassResult& pass,
                         const std::string& scratch_dir);

}  // namespace perfbench
