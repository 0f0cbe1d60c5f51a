// Topics configured with num_ingest_shards > 1: the knob is accepted for
// compatibility and selects nothing, so these topics take the one batch
// path and must end in the same observable state as a single-shard
// topic on the same input — same template shapes, same grouping —
// including under concurrent queries, concurrent batches and
// asynchronous retraining. The concurrency cases are deterministic (gate
// hook, no sleeps on assertion paths) and TSAN-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "eval/metrics.h"
#include "service/log_service.h"

namespace bytebrain {
namespace {

// Distinct, non-overlapping shapes: no shape can match another shape's
// adopted template (no shared token skeleton), so sharded and sequential
// adoption produce the same template set even before a training cycle.
std::string NovelLog(int shape, int dup) {
  return "subsystem" + std::to_string(shape) + " failure code " +
         std::to_string(shape * 7) + " attempt 10.0.0." +
         std::to_string(dup % 9 + 1);
}

std::string SshLog(int i) {
  return "Accepted password for user" + std::to_string(i % 5) +
         " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
         std::to_string(40000 + i) + " ssh2";
}

TopicConfig ShardConfig(int shards) {
  TopicConfig config;
  config.initial_train_records = 200;
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 1ull << 40;
  config.num_threads = 2;
  config.async_training = false;  // deterministic unless a test opts in
  config.num_ingest_shards = shards;
  return config;
}

std::vector<std::string> Corpus(size_t n) {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  GenOptions opts;
  opts.num_logs = n;
  opts.num_templates = 24;
  std::vector<std::string> texts;
  for (auto& l : gen.Generate(opts).logs) texts.push_back(l.text);
  return texts;
}

std::vector<uint32_t> CorpusLabels(size_t n) {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  GenOptions opts;
  opts.num_logs = n;
  opts.num_templates = 24;
  std::vector<uint32_t> labels;
  for (auto& l : gen.Generate(opts).logs) labels.push_back(l.gt_template);
  return labels;
}

void IngestInBatches(ManagedTopic* topic, const std::vector<std::string>& texts,
                     size_t batch_size) {
  for (size_t begin = 0; begin < texts.size(); begin += batch_size) {
    const size_t end = std::min(begin + batch_size, texts.size());
    std::vector<std::string> chunk(texts.begin() + begin, texts.begin() + end);
    auto seqs = topic->IngestBatch(std::move(chunk));
    ASSERT_TRUE(seqs.ok()) << seqs.status().ToString();
    ASSERT_EQ(seqs.value().size(), end - begin);
    for (size_t i = 0; i < seqs.value().size(); ++i) {
      EXPECT_EQ(seqs.value()[i], begin + i);
    }
  }
}

std::vector<uint64_t> RecordAssignments(const ManagedTopic& topic) {
  std::vector<uint64_t> out;
  EXPECT_TRUE(topic
                  .ScanRecords(0, topic.size(),
                               [&out](uint64_t, const LogRecord& rec) {
                                 out.push_back(rec.template_id);
                               })
                  .ok());
  return out;
}

std::multiset<std::string> TemplateTexts(const ManagedTopic& topic) {
  const std::vector<std::string> texts = topic.TemplateTexts();
  return std::multiset<std::string>(texts.begin(), texts.end());
}

// The acceptance scenario: the same corpus pushed through 1 shard and 4
// shards must end in the same state — identical template-text multiset
// and identical grouping (GA of 1.0 between the two assignments, equal
// GA against ground truth) — after a final training reconciles
// temporaries.
TEST(ShardedIngestTest, EndStateMatchesUnshardedOnDatagenCorpus) {
  const auto texts = Corpus(3000);
  const auto labels = CorpusLabels(3000);

  ManagedTopic unsharded("plain", ShardConfig(1));
  ManagedTopic sharded("sharded", ShardConfig(4));
  IngestInBatches(&unsharded, texts, 256);
  IngestInBatches(&sharded, texts, 256);
  ASSERT_TRUE(unsharded.trained());
  ASSERT_TRUE(sharded.trained());

  // Final training: both topics train on the identical record window, so
  // models, assignments, and query results must agree exactly.
  ASSERT_TRUE(unsharded.TrainNow().ok());
  ASSERT_TRUE(sharded.TrainNow().ok());

  EXPECT_EQ(TemplateTexts(unsharded), TemplateTexts(sharded));

  const auto plain = RecordAssignments(unsharded);
  const auto shard = RecordAssignments(sharded);
  ASSERT_EQ(plain.size(), shard.size());
  EXPECT_EQ(GroupingAccuracy(plain, shard), 1.0);
  EXPECT_EQ(GroupingAccuracy(plain, labels), GroupingAccuracy(shard, labels));

  // Queries agree group-for-group at full precision.
  auto q1 = unsharded.Query(1.0);
  auto q2 = sharded.Query(1.0);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_EQ(q1.value().size(), q2.value().size());
  for (size_t i = 0; i < q1.value().size(); ++i) {
    EXPECT_EQ(q1.value()[i].template_text, q2.value()[i].template_text);
    EXPECT_EQ(q1.value()[i].count, q2.value()[i].count);
    EXPECT_EQ(q1.value()[i].sequence_numbers, q2.value()[i].sequence_numbers);
  }
}

// Before any reconciling training, adopting non-overlapping novel shapes
// must still produce the sequential template set: each shape adopted
// exactly once, duplicates assigned to their shape's template.
TEST(ShardedIngestTest, AdoptedTemplateSetMatchesUnsharded) {
  ManagedTopic unsharded("plain", ShardConfig(1));
  ManagedTopic sharded("sharded", ShardConfig(4));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(unsharded.Ingest(SshLog(i)).ok());
    ASSERT_TRUE(sharded.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(unsharded.trained());
  ASSERT_TRUE(sharded.trained());

  std::vector<std::string> batch;
  for (int dup = 0; dup < 16; ++dup) {
    for (int shape = 0; shape < 24; ++shape) {
      batch.push_back(NovelLog(shape, dup));
    }
  }
  ASSERT_TRUE(unsharded.IngestBatch(batch).ok());
  ASSERT_TRUE(sharded.IngestBatch(batch).ok());

  EXPECT_EQ(TemplateTexts(unsharded), TemplateTexts(sharded));
  EXPECT_EQ(unsharded.stats().adopted_templates,
            sharded.stats().adopted_templates);
  const auto plain = RecordAssignments(unsharded);
  const auto shard = RecordAssignments(sharded);
  EXPECT_EQ(GroupingAccuracy(plain, shard), 1.0);
}

// Folds happen in the batch's exclusive section while queries hold the
// shared lock: a query must never observe a record whose template id it
// cannot resolve (pendings are invisible until folded, and records are
// appended only after the fold).
TEST(ShardedIngestTest, MergeUnderConcurrentQueryStaysCoherent) {
  ManagedTopic topic("sharded", ShardConfig(4));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> query_errors{0};
  std::atomic<uint64_t> queries_run{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto q = topic.Query(1.0);
      if (!q.ok()) {
        query_errors.fetch_add(1);
        continue;
      }
      for (const TemplateGroup& g : q.value()) {
        // Every assigned record resolves to a renderable template: no
        // query may ever see a shard-local (unfolded) id.
        if (g.template_id != kInvalidTemplateId && g.template_text.empty()) {
          query_errors.fetch_add(1);
        }
        if (g.template_text == "<unparsed>") {
          query_errors.fetch_add(1);
        }
      }
      (void)topic.stats();
      queries_run.fetch_add(1);
    }
  });

  // 40 batches, each with novel shapes (adopt + fold) and duplicates.
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 4; ++dup) {
      for (int shape = 0; shape < 6; ++shape) {
        batch.push_back(NovelLog(round * 6 + shape, dup));
      }
    }
    for (int i = 0; i < 16; ++i) batch.push_back(SshLog(i));
    ASSERT_TRUE(topic.IngestBatch(std::move(batch)).ok());
  }
  done.store(true);
  reader.join();

  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_GT(queries_run.load(), 0u);
  // End state: every record carries a valid template id.
  for (uint64_t id : RecordAssignments(topic)) {
    EXPECT_NE(id, kInvalidTemplateId);
  }
}

/// One-shot gate for holding an async training in flight (same pattern
/// as service_async_test.cc).
class TrainingGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      started_.fetch_add(1);
      gate_.wait();
    };
  }
  bool Started() const { return started_.load() > 0; }
  void Release() { release_.set_value(); }
  void AwaitStarted() {
    while (!Started()) std::this_thread::yield();
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_{release_.get_future()};
  std::atomic<int> started_{0};
};

// Sharded ingest composing with async retraining: batches keep adopting
// and folding while a training is held in flight; the commit swaps the
// model, drops every temporary (including shard pendings), and re-matches
// mid-training arrivals — no record may end up unassigned and no pending
// id may dangle into the swapped model.
TEST(ShardedIngestTest, ShardingComposesWithAsyncRetrain) {
  TrainingGate gate;
  TopicConfig config = ShardConfig(4);
  config.async_training = true;
  config.train_interval_records = 300;  // retrain trigger after bootstrap
  config.on_async_training_start = gate.Hook();
  ManagedTopic topic("sharded", config);

  // Bootstrap: initial training at 200 (synchronous), then push past the
  // retrain trigger so a background training parks at the gate.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());
  std::vector<std::string> filler;
  for (int i = 0; i < 310; ++i) filler.push_back(SshLog(i));
  ASSERT_TRUE(topic.IngestBatch(std::move(filler)).ok());
  gate.AwaitStarted();
  ASSERT_EQ(topic.stats().pending_trainings, 1u);

  // Sharded batches with novel shapes while the training is in flight:
  // adoption, folding, and queries must not wait on the training.
  for (int round = 0; round < 8; ++round) {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 4; ++dup) {
      for (int shape = 0; shape < 4; ++shape) {
        batch.push_back(NovelLog(round * 4 + shape, dup));
      }
    }
    ASSERT_TRUE(topic.IngestBatch(std::move(batch)).ok());
    auto q = topic.Query(1.0);
    ASSERT_TRUE(q.ok());
  }
  EXPECT_EQ(topic.stats().pending_trainings, 1u);

  gate.Release();
  topic.WaitForPendingTraining();

  // Post-commit batch exercises the reset-shards path (all pendings were
  // dropped by the swap; novel shapes re-adopt cleanly).
  std::vector<std::string> post;
  for (int dup = 0; dup < 4; ++dup) {
    for (int shape = 100; shape < 104; ++shape) {
      post.push_back(NovelLog(shape, dup));
    }
  }
  ASSERT_TRUE(topic.IngestBatch(std::move(post)).ok());

  const TopicStats stats = topic.stats();
  EXPECT_GE(stats.trainings, 2u);
  EXPECT_GE(stats.async_trainings, 1u);
  EXPECT_EQ(stats.failed_trainings, 0u);
  EXPECT_EQ(stats.ingested_records, topic.size());
  for (uint64_t id : RecordAssignments(topic)) {
    EXPECT_NE(id, kInvalidTemplateId);
  }
}

// Two sharded batches racing: both take the shared phase concurrently,
// their exclusive sections serialize, and the second to fold must reuse
// (not duplicate) the first's published temporaries. Deterministic
// assertions on the end state only; TSAN checks the interleaving.
TEST(ShardedIngestTest, ConcurrentBatchesDoNotDuplicateTemplates) {
  ManagedTopic topic("sharded", ShardConfig(4));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());

  constexpr int kShapes = 10;
  auto make_batch = [] {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 6; ++dup) {
      for (int shape = 0; shape < kShapes; ++shape) {
        batch.push_back(NovelLog(shape, /*dup=*/0));
      }
    }
    return batch;
  };
  std::thread t1([&] { ASSERT_TRUE(topic.IngestBatch(make_batch()).ok()); });
  std::thread t2([&] { ASSERT_TRUE(topic.IngestBatch(make_batch()).ok()); });
  t1.join();
  t2.join();

  // Every copy of a shape resolves to ONE template id across both
  // batches (colocation + the pending matcher dedup across batches).
  std::map<std::string, std::set<TemplateId>> ids_by_text;
  ASSERT_TRUE(topic
                  .ScanRecords(200, topic.size(),
                               [&](uint64_t, const LogRecord& rec) {
                                 ids_by_text[rec.text].insert(rec.template_id);
                               })
                  .ok());
  ASSERT_EQ(ids_by_text.size(), static_cast<size_t>(kShapes));
  for (const auto& [text, ids] : ids_by_text) {
    EXPECT_EQ(ids.size(), 1u) << text;
  }
}

}  // namespace
}  // namespace bytebrain
