// Golden determinism test for offline training.
//
// The trainer's output — the serialized template model and the per-log
// assignments — is pinned to a digest recorded before the clustering
// inner loops were optimized. Any speed work on preprocessing, position
// statistics, similarity or scheduling must reproduce these exact bytes,
// and they must not depend on the number of training threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "core/variable_replacer.h"
#include "datagen/generator.h"

namespace bytebrain {
namespace {

// The golden corpus: every synthetic LogHub dataset, with preambles, one
// fixed generator salt, interleaved round-robin into ~20k records.
constexpr size_t kLogsPerDataset = 1250;
constexpr uint64_t kGoldenSalt = 0x5eed;

// FNV-1a-64 of Serialize() followed by the little-endian assignments,
// recorded on the parent of the training speed-up (one thread).
constexpr uint64_t kGoldenDigest = 0xd7bf14bc86a3d661ULL;

const std::vector<std::string>& GoldenCorpus() {
  static const std::vector<std::string> corpus =
      GenerateInterleavedMix(AllDatasetSpecs(), kLogsPerDataset, kGoldenSalt);
  return corpus;
}

struct Trained {
  std::string model_bytes;
  std::vector<TemplateId> assignments;
};

Trained TrainOn(const std::vector<std::string>& logs,
                const TrainerOptions& options) {
  const VariableReplacer replacer = VariableReplacer::Default();
  auto out = Trainer(options).Train(logs, replacer);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  Trained t;
  if (!out.ok()) return t;
  t.model_bytes = out.value().model.Serialize();
  t.assignments = std::move(out.value().assignments);
  return t;
}

Trained TrainGolden(int num_threads) {
  TrainerOptions options;
  options.num_threads = num_threads;
  options.preprocess.num_threads = num_threads;
  return TrainOn(GoldenCorpus(), options);
}

uint64_t Digest(const Trained& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (char c : t.model_bytes) feed(static_cast<unsigned char>(c));
  for (TemplateId id : t.assignments) {
    const uint32_t v = static_cast<uint32_t>(id);
    for (int s = 0; s < 32; s += 8) feed(static_cast<unsigned char>(v >> s));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(TrainerGoldenTest, CorpusShape) {
  EXPECT_EQ(AllDatasetSpecs().size(), 16u);
  EXPECT_EQ(GoldenCorpus().size(), 16u * kLogsPerDataset);
}

TEST(TrainerGoldenTest, SingleThreadMatchesRecordedDigest) {
  const Trained t = TrainGolden(1);
  ASSERT_EQ(t.assignments.size(), GoldenCorpus().size());
  for (TemplateId id : t.assignments) ASSERT_NE(id, kInvalidTemplateId);
  EXPECT_EQ(Hex(Digest(t)), Hex(kGoldenDigest));
}

TEST(TrainerGoldenTest, ModelBytesDoNotDependOnThreadCount) {
  const Trained one = TrainGolden(1);
  for (int threads : {2, 4}) {
    const Trained many = TrainGolden(threads);
    EXPECT_TRUE(many.model_bytes == one.model_bytes)
        << "model bytes differ at " << threads << " threads";
    EXPECT_EQ(many.assignments, one.assignments) << threads << " threads";
  }
}

// The ablation switches take other branches through the same inner
// loops (unit weights, no early exit, no saturation check); each is
// pinned on the first 4000 golden records.
struct AblationCase {
  const char* name;
  void (*apply)(ClusterOptions*);
  uint64_t digest;
};

const AblationCase kAblations[] = {
    {"no_position_importance",
     [](ClusterOptions* o) { o->use_position_importance = false; },
     0x9bd9492810bc992aULL},
    {"no_balanced_grouping",
     [](ClusterOptions* o) { o->balanced_grouping = false; },
     0xadc27e9ff40f24a3ULL},
    {"random_seeding", [](ClusterOptions* o) { o->kmeanspp_seeding = false; },
     0x5e7bc748d52b6f2fULL},
    {"no_saturation_increase",
     [](ClusterOptions* o) { o->ensure_saturation_increase = false; },
     0x958ea0af0b525affULL},
    {"no_early_stop", [](ClusterOptions* o) { o->early_stop = false; },
     0x76e86e67a86542a3ULL},
};

TEST(TrainerGoldenTest, AblationsMatchRecordedDigests) {
  const std::vector<std::string> head(GoldenCorpus().begin(),
                                      GoldenCorpus().begin() + 4000);
  for (const AblationCase& c : kAblations) {
    TrainerOptions options;
    c.apply(&options.cluster);
    EXPECT_EQ(Hex(Digest(TrainOn(head, options))), Hex(c.digest)) << c.name;
  }
}

}  // namespace
}  // namespace bytebrain
