// Synthetic labeled log generator.
//
// Produces LogHub-style corpora: each dataset has a fixed set of synthetic
// templates (mix of handcrafted, dataset-flavored ones and procedurally
// generated ones), Zipfian template frequencies, and per-variable bounded
// value pools so the duplicate-count profile matches the paper's Fig. 4.
// Every emitted log carries its ground-truth template id, which the
// evaluation harness uses for Grouping Accuracy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/dataset_spec.h"
#include "util/rng.h"

namespace bytebrain {

/// One generated log with its ground-truth template label.
struct LabeledLog {
  std::string text;
  uint32_t gt_template = 0;
};

/// A generated corpus.
struct Dataset {
  std::string name;
  std::vector<LabeledLog> logs;
  size_t num_templates = 0;

  uint64_t TextBytes() const {
    uint64_t b = 0;
    for (const auto& l : logs) b += l.text.size();
    return b;
  }
};

/// Generation knobs.
struct GenOptions {
  size_t num_logs = 2000;
  size_t num_templates = 50;
  /// Prefix each record with a format-appropriate timestamp/host preamble.
  /// Parser evaluations run on content only (like the Logparser toolkit,
  /// which extracts the Content field); service benches include preambles.
  bool include_preamble = false;
  double zipf_exponent = 1.2;
  uint64_t seed_salt = 0;
};

/// Deterministic generator for one dataset spec. Thread-compatible: create
/// one instance per thread.
class DatasetGenerator {
 public:
  explicit DatasetGenerator(const DatasetSpec& spec) : spec_(spec) {}

  /// Generates with explicit options.
  Dataset Generate(const GenOptions& options) const;

  /// LogHub-sized corpus: 2000 logs, Table-1 template count.
  Dataset GenerateLogHub() const;

  /// LogHub-2.0-sized corpus scaled by `scale` (1.0 = full Table-1 log
  /// count; default benches use ~0.01-0.05). Template count is NOT scaled.
  Dataset GenerateLogHub2(double scale) const;

  const DatasetSpec& spec() const { return spec_; }

 private:
  DatasetSpec spec_;
};

/// Renders a preamble for the style (exposed for the service benches).
std::string RenderPreamble(PreambleStyle style, Rng* rng);

/// The multi-source stream a service topic sees: `per_dataset` logs of
/// each spec (with preambles, the spec's Table-1 template count, seed
/// salt `salt`), interleaved round-robin. Texts only.
std::vector<std::string> GenerateInterleavedMix(
    const std::vector<DatasetSpec>& specs, size_t per_dataset,
    uint64_t salt);

}  // namespace bytebrain
