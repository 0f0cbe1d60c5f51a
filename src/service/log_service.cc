#include "service/log_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "regex/regex.h"
#include "util/timer.h"

namespace bytebrain {

namespace {
// The scalar-knob subset of ValidateTopicConfig — cheap enough to run
// under the topic's exclusive lock. UpdateConfig uses exactly this
// (a patch cannot change rules or storage), CreateTopic gets it via
// ValidateTopicConfig: one rule set, two entry points.
Status ValidateTopicKnobs(const TopicConfig& config) {
  if (config.train_volume_bytes == 0) {
    return Status::InvalidArgument("train_volume_bytes must be > 0");
  }
  if (config.train_interval_records == 0) {
    return Status::InvalidArgument("train_interval_records must be > 0");
  }
  if (config.initial_train_records == 0) {
    return Status::InvalidArgument("initial_train_records must be > 0");
  }
  if (config.max_train_records == 0) {
    return Status::InvalidArgument("max_train_records must be > 0");
  }
  if (config.num_threads < 1 || config.num_threads > 256) {
    return Status::InvalidArgument("num_threads must be in [1, 256]");
  }
  if (config.num_ingest_shards < 1 || config.num_ingest_shards > 64) {
    return Status::InvalidArgument("num_ingest_shards must be in [1, 64]");
  }
  return Status::OK();
}

// TopicConfig::durability is the single wire-visible durability knob;
// fold it into the StorageConfig the LogTopic actually receives
// (StorageConfig::durability is ignored at this layer otherwise).
StorageConfig EffectiveStorage(const TopicConfig& config) {
  StorageConfig storage = config.storage;
  storage.durability = config.durability;
  return storage;
}
}  // namespace

Status ValidateTopicConfig(const TopicConfig& config) {
  BB_RETURN_IF_ERROR(ValidateTopicKnobs(config));
  if (config.storage.kind == StorageConfig::Kind::kSegmentedDisk &&
      config.storage.directory.empty()) {
    return Status::InvalidArgument(
        "storage.directory is required for kSegmentedDisk storage");
  }
  if (config.storage.kind == StorageConfig::Kind::kSegmentedDisk &&
      config.storage.segment_data_bytes == 0) {
    return Status::InvalidArgument("storage.segment_data_bytes must be > 0");
  }
  if (config.durability != DurabilityMode::kNone &&
      config.storage.kind != StorageConfig::Kind::kSegmentedDisk) {
    return Status::InvalidArgument(
        "durability requires kSegmentedDisk storage");
  }
  for (const auto& [rule_name, pattern] : config.variable_rules) {
    if (rule_name.empty()) {
      return Status::InvalidArgument("variable_rules: rule name is empty");
    }
    auto compiled = Regex::Compile(pattern);
    if (!compiled.ok()) {
      return Status::InvalidArgument("variable_rules['" + rule_name +
                                     "']: " + compiled.status().ToString());
    }
  }
  return Status::OK();
}

ManagedTopic::ManagedTopic(std::string name, TopicConfig config)
    : name_(std::move(name)),
      config_(std::move(config)),
      topic_(name_, EffectiveStorage(config_)),
      parser_(config_.parser_options) {
  for (const auto& [rule_name, pattern] : config_.variable_rules) {
    // Invalid tenant rules are skipped rather than poisoning the topic;
    // the compile error is surfaced through the parser's API when added
    // explicitly.
    (void)parser_.AddVariableRule(rule_name, pattern);
  }
  if (topic_.size() > 0) RecoverFromStorage();
}

void ManagedTopic::RecoverFromStorage() {
  // Volume stats are derivable from the recovered store; cycle counters
  // (trainings, adoption counts, ...) restart at zero — they describe
  // this process's lifetime.
  stats_.ingested_records = topic_.size();
  stats_.ingested_bytes = topic_.text_bytes();
  stats_.recovered_records = topic_.size();

  const std::string blob = topic_.recovered_metadata();
  bool restored = false;
  if (!blob.empty()) {
    auto model = TemplateModel::Deserialize(blob);
    // An unreadable model snapshot is not fatal: the records survived,
    // and the initial-training trigger below re-learns from them.
    if (model.ok()) {
      PreparedRetrain prepared;
      prepared.model = std::move(model).value();
      prepared.matcher = std::make_unique<TemplateMatcher>(
          prepared.model, &parser_.replacer());
      parser_.CommitRetrain(std::move(prepared));
      trained_ = true;
      restored = true;
      stats_.num_templates = parser_.model().size();
      stats_.model_bytes = parser_.ModelBytes();
      parser_.model().ExportTo(&internal_);
    }
  }
  if (!restored) {
    // No model: count the whole recovered window toward the initial
    // training so the next ingest trips it.
    records_since_training_ = topic_.size();
    bytes_since_training_ = topic_.text_bytes();
    return;
  }
  // Records appended after the last checkpoint may carry template ids
  // the restored model does not know (temporaries adopted and lost in
  // the crash). Re-match them in arrival order so every stored id
  // resolves — the same reconciliation a training commit applies to
  // mid-training arrivals. Collected first: AssignTemplate must not
  // re-enter the topic from inside its own Scan.
  std::vector<std::pair<uint64_t, std::string>> unknown;
  (void)topic_.Scan(0, topic_.size(),
                    [this, &unknown](uint64_t seq, const LogRecord& rec) {
                      if (rec.template_id == kInvalidTemplateId ||
                          parser_.model().node(rec.template_id) == nullptr) {
                        unknown.emplace_back(seq, rec.text);
                      }
                    });
  for (auto& [seq, text] : unknown) {
    bool adopted = false;
    const TemplateId id = parser_.MatchOrAdopt(text, &adopted);
    if (adopted) PublishAdoptedLocked(id);
    (void)topic_.AssignTemplate(seq, id);
  }
}

ManagedTopic::~ManagedTopic() {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // An in-flight training still commits (its assignments are not
    // lost), but its commit schedules no follow-up.
    shutting_down_ = true;
  }
  // ThreadPool destruction drains queued tasks and joins the worker; it
  // runs here — not in member destruction — so every other member is
  // still alive while the last training commits.
  train_pool_.reset();
  if (purge_storage_.load()) {
    // DeleteTopic: the records are going away with the topic — remove
    // the segment directory instead of checkpointing into it. Best
    // effort; an undeletable directory must not throw from a destructor.
    if (topic_.persistent_storage() && !config_.storage.directory.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(config_.storage.directory, ec);
    }
    return;
  }
  // A drained final commit may have staged a model checkpoint; flush
  // it so a clean shutdown is recoverable to its last training.
  MaybeFlushStorageCheckpoint();
}

Result<uint64_t> ManagedTopic::Ingest(std::string text,
                                      uint64_t timestamp_us) {
  std::vector<std::string> texts;
  texts.push_back(std::move(text));
  auto seqs = IngestTexts(texts, std::span<const uint64_t>(&timestamp_us, 1));
  BB_RETURN_IF_ERROR(seqs.status());
  return seqs.value()[0];
}

Result<std::vector<uint64_t>> ManagedTopic::IngestBatch(
    std::vector<std::string> texts,
    const std::vector<uint64_t>& timestamps_us) {
  return IngestTexts(texts, timestamps_us);
}

Result<std::vector<uint64_t>> ManagedTopic::IngestBatch(
    const std::vector<std::string_view>& texts,
    const std::vector<uint64_t>& timestamps_us) {
  return IngestTexts(texts, timestamps_us);
}

namespace {
// Materializes one batch text into an owned record string: owned
// strings MOVE (no extra copy), borrowed views copy exactly once — the
// only materialization the view ingest path pays.
std::string TakeText(std::string& text) { return std::move(text); }
std::string TakeText(std::string_view text) { return std::string(text); }
}  // namespace

template <typename TextVec>
Result<std::vector<uint64_t>> ManagedTopic::IngestTexts(
    TextVec& texts, std::span<const uint64_t> timestamps_us) {
  if (!timestamps_us.empty() && timestamps_us.size() != texts.size()) {
    return Status::InvalidArgument(
        "timestamps_us must be empty or match texts in size");
  }
  std::vector<uint64_t> seqs;
  if (texts.empty()) return seqs;
  seqs.reserve(texts.size());

  // Phase 1 (shared lock): match the batch against the current model.
  // Queries and other batches' match phases proceed concurrently; only
  // the adoption/append section below excludes them.
  std::vector<TemplateId> prematched;
  uint64_t generation = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    generation = model_generation_;
    if (trained_) {
      prematched = parser_.MatchAll(texts, config_.num_threads);
    }
  }

  // Phase 2 (exclusive lock): adopt misses, append, count, train.
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Prematched ids are only valid while the model that produced them is
  // current: any training cycle or adoption — by this batch, a
  // concurrent Ingest, or a concurrent batch — bumps model_generation_
  // and can shadow lower-saturation matches. Affected records fall back
  // to matching under the lock, keeping results identical to a
  // sequential Ingest loop.
  for (size_t i = 0; i < texts.size(); ++i) {
    const bool prematch_valid =
        !prematched.empty() && generation == model_generation_;
    const TemplateId hint =
        prematch_valid ? prematched[i] : kInvalidTemplateId;
    seqs.push_back(IngestOneLocked(TakeText(texts[i]),
                                   timestamps_us.empty() ? 0 : timestamps_us[i],
                                   hint));
  }
  lock.unlock();
  // Group-commit durability wait, deliberately off-lock: the WAL commit
  // thread coalesces concurrent waiters into one fsync, and holding mu_
  // here would serialize them. A failure went sticky into
  // storage_status() inside WaitDurable — the ack still stands
  // (fail-soft, same as an append IO error), so the result is ignored.
  (void)topic_.WaitDurable();
  MaybeFlushStorageCheckpoint();
  return seqs;
}

uint64_t ManagedTopic::IngestOneLocked(std::string text, uint64_t timestamp_us,
                                       TemplateId prematched) {
  LogRecord record;
  record.timestamp_us = timestamp_us;
  record.text = std::move(text);

  // Online matching happens before the record lands so the template id
  // is indexed together with the text (§3 "Online Matching"). A single
  // MatchOrAdopt reports adoption directly — the old probe-then-adopt
  // dance matched every record up to three times.
  if (trained_) {
    bool adopted = false;
    if (prematched != kInvalidTemplateId) {
      record.template_id = prematched;
    } else {
      record.template_id = parser_.MatchOrAdopt(record.text, &adopted);
    }
    ++stats_.matched_online;
    if (adopted) PublishAdoptedLocked(record.template_id);
  }

  bytes_since_training_ += record.text.size();
  ++records_since_training_;
  stats_.ingested_bytes += record.text.size();
  ++stats_.ingested_records;
  const uint64_t seq = topic_.Append(std::move(record));
  MaybeTrainLocked();
  return seq;
}

void ManagedTopic::PublishAdoptedLocked(TemplateId id) {
  // An adopted template (saturation 1.0) can shadow lower-saturation
  // matches for later logs; ids prematched before it existed are no
  // longer authoritative.
  ++model_generation_;
  ++stats_.adopted_templates;
  // Publish the adopted template's metadata immediately so queries can
  // display it before the next training cycle.
  const TreeNode* node = parser_.model().node(id);
  if (node != nullptr) {
    internal_.Put({node->id, node->parent, node->saturation,
                   parser_.TemplateText(node->id), node->support});
  }
}

void ManagedTopic::MaybeTrainLocked() {
  const bool first_training_due =
      !trained_ && records_since_training_ >= config_.initial_train_records;
  const bool retrain_due =
      trained_ && (bytes_since_training_ >= config_.train_volume_bytes ||
                   records_since_training_ >= config_.train_interval_records);
  if (!first_training_due && !retrain_due) return;
  if (training_in_flight_) {
    // Coalesce: the running cycle's commit re-checks the (still
    // accumulating) counters and schedules one follow-up for the whole
    // backlog instead of queueing a run per trigger.
    ++stats_.coalesced_triggers;
    return;
  }
  const bool synchronous =
      !config_.async_training ||
      (first_training_due && config_.sync_initial_training);
  const Status trained =
      synchronous ? TrainSyncLocked() : ScheduleAsyncTrainingLocked();
  if (!trained.ok()) ++stats_.failed_trainings;
}

Status ManagedTopic::TrainNow() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Manual training is synchronous by contract: let an in-flight
  // background cycle commit first (its counters/window would otherwise
  // race ours), then train inline.
  train_done_cv_.wait(lock, [this] { return !training_in_flight_; });
  const Status trained = TrainSyncLocked();
  if (!trained.ok()) ++stats_.failed_trainings;
  lock.unlock();
  MaybeFlushStorageCheckpoint();
  return trained;
}

void ManagedTopic::WaitForPendingTraining() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  train_done_cv_.wait(lock, [this] { return !training_in_flight_; });
}

Status ManagedTopic::SnapshotTrainingLocked(TrainingRun* run) {
  const uint64_t total = topic_.size();
  run->snapshot_size = 0;
  if (total == 0) return Status::OK();
  const uint64_t window =
      std::min<uint64_t>(total, config_.max_train_records);
  run->window_begin = total - window;
  // The sealed part of the window needs no copy: sealed segments are
  // immutable and the snapshot keeps them mapped, so the TRAINING
  // thread reads them off-lock. Only the unsealed tail (bounded by the
  // active segment, not by max_train_records) is copied here.
  run->tail_begin = run->window_begin;
  run->sealed = topic_.SnapshotSealed();
  if (run->sealed != nullptr) {
    const uint64_t sealed_end = std::min(run->sealed->end_seq(), total);
    if (sealed_end > run->tail_begin) {
      run->tail_begin = sealed_end;
    } else {
      run->sealed.reset();  // window is entirely unsealed
    }
  }
  run->tail.reserve(total - run->tail_begin);
  BB_RETURN_IF_ERROR(topic_.Scan(
      run->tail_begin, total, [run](uint64_t, const LogRecord& rec) {
        run->tail.push_back(rec.text);
      }));
  stats_.last_snapshot_copied_records = total - run->tail_begin;
  stats_.last_snapshot_mapped_records = run->tail_begin - run->window_begin;
  run->base = parser_.SnapshotModel();
  run->num_threads = config_.num_threads;
  run->start_hook = config_.on_async_training_start;
  run->snapshot_size = total;
  // The trigger counters measure "volume since the last training
  // SNAPSHOT" — records arriving while this snapshot trains count toward
  // the NEXT cycle. Triggered and manual (TrainNow) trainings both reset
  // here and nowhere else.
  bytes_since_training_ = 0;
  records_since_training_ = 0;
  training_in_flight_ = true;
  return Status::OK();
}

Result<PreparedRetrain> ManagedTopic::PrepareTrainingGuarded(
    TrainingRun* run, std::vector<TemplateId>* assignments,
    bool invoke_hook) const {
  try {
    // Read ONLY the run's snapshot (hook, thread count): this executes
    // off-lock and config_ may be reassigned by UpdateConfig meanwhile.
    if (invoke_hook && run->start_hook) {
      run->start_hook();
    }
    // Materialize the window as VIEWS: the sealed part points straight
    // into the mmap'd segments (held alive by run->sealed), the tail
    // part into the snapshot's copies — the window itself is never
    // duplicated into RAM, no matter how large max_train_records is.
    std::vector<std::string_view> window;
    window.reserve(run->window_size());
    if (run->sealed != nullptr) {
      const Status scanned = run->sealed->ScanTexts(
          run->window_begin, run->tail_begin,
          [&window](uint64_t, std::string_view text) {
            window.push_back(text);
          });
      if (!scanned.ok()) return scanned;
    }
    for (const std::string& text : run->tail) window.emplace_back(text);
    auto built =
        parser_.PrepareRetrain(std::move(run->base), window, run->num_threads);
    if (built.ok()) {
      *assignments =
          built.value().matcher->MatchAll(window, run->num_threads);
    }
    return built;
  } catch (const std::exception& e) {
    return Status::Aborted(std::string("training threw: ") + e.what());
  } catch (...) {
    return Status::Aborted("training threw");
  }
}

Status ManagedTopic::TrainSyncLocked() {
  TrainingRun run;
  BB_RETURN_IF_ERROR(SnapshotTrainingLocked(&run));
  if (run.snapshot_size == 0) return Status::OK();
  Timer timer;
  std::vector<TemplateId> assignments;
  auto prepared =
      PrepareTrainingGuarded(&run, &assignments, /*invoke_hook=*/false);
  if (!prepared.ok()) {
    training_in_flight_ = false;
    train_done_cv_.notify_all();
    return prepared.status();
  }
  return CommitTrainingLocked(run, std::move(prepared).value(), assignments,
                              timer.ElapsedSeconds());
}

Status ManagedTopic::ScheduleAsyncTrainingLocked() {
  TrainingRun run;
  BB_RETURN_IF_ERROR(SnapshotTrainingLocked(&run));
  if (run.snapshot_size == 0) return Status::OK();
  try {
    if (train_pool_ == nullptr) train_pool_ = std::make_unique<ThreadPool>(1);
    // shared_ptr because std::function requires a copyable callable; the
    // run itself is never actually copied. Schedule (not Submit) as a
    // last-resort backstop: RunAsyncTraining converts every foreseeable
    // throw into failed-training stats itself, and anything that still
    // escapes is captured by the task's future instead of terminating
    // the worker.
    auto shared_run = std::make_shared<TrainingRun>(std::move(run));
    (void)train_pool_->Schedule(
        [this, shared_run] { RunAsyncTraining(std::move(*shared_run)); });
  } catch (const std::exception& e) {
    // Thread creation (pid/rlimit exhaustion) or allocation failed; the
    // snapshot set training_in_flight_, which MUST not leak out set or
    // no training would ever run again and waiters would sleep forever.
    training_in_flight_ = false;
    train_done_cv_.notify_all();
    return Status::ResourceExhausted(
        std::string("cannot schedule background training: ") + e.what());
  }
  return Status::OK();
}

void ManagedTopic::RunAsyncTraining(TrainingRun run) {
  // The timer covers the whole background run — including the
  // instrumentation hook, which tests use to stretch the window — so
  // last_training_seconds is the duration ingest would have stalled for
  // under the synchronous design.
  Timer timer;

  // The expensive part runs with NO topic lock held: ingest keeps
  // matching against the current model, queries keep scanning. The
  // snapshot owns every input (window copies, cloned model); the only
  // shared state touched is the replacer, which is const after setup.
  // A throw from the user hook (or an allocation failure in training)
  // must not escape a detached thread: it becomes a failed training.
  std::vector<TemplateId> assignments;
  auto prepared =
      PrepareTrainingGuarded(&run, &assignments, /*invoke_hook=*/true);
  const double train_seconds = timer.ElapsedSeconds();

  std::unique_lock<std::shared_mutex> lock(mu_);
  try {
    if (!prepared.ok()) {
      // Model untouched; clear the in-flight state the commit would have.
      training_in_flight_ = false;
      ++stats_.failed_trainings;
    } else {
      Timer swap_timer;
      // Once CommitTrainingLocked runs, the swap has happened: the cycle
      // counts as an (async) training even when a stored-id re-assignment
      // failed, which also counts it as failed.
      const Status committed = CommitTrainingLocked(
          run, std::move(prepared).value(), assignments, train_seconds);
      if (!committed.ok()) ++stats_.failed_trainings;
      stats_.last_swap_seconds = swap_timer.ElapsedSeconds();
      ++stats_.async_trainings;
    }
    // Triggers that fired while we trained were coalesced; if their volume
    // is still due, run ONE follow-up cycle for the whole backlog. The
    // destructor suppresses this so shutdown drains.
    if (!shutting_down_) MaybeTrainLocked();
  } catch (...) {
    // Allocation failure mid-commit or mid-reschedule. Leave the topic
    // schedulable and visibly account the breakage rather than letting
    // the exception vanish into the discarded task future.
    training_in_flight_ = false;
    ++stats_.failed_trainings;
  }
  // Waiters re-check under the lock: if a follow-up was scheduled,
  // training_in_flight_ is set again and they keep sleeping.
  train_done_cv_.notify_all();
  lock.unlock();
  // The commit staged a model checkpoint; its fsyncs belong on this
  // thread, not under the exclusive lock.
  MaybeFlushStorageCheckpoint();
}

Status ManagedTopic::CommitTrainingLocked(
    const TrainingRun& run, PreparedRetrain prepared,
    const std::vector<TemplateId>& assignments, double train_seconds) {
  // Clear the in-flight state first so every return path (including the
  // storage errors of the re-assignment below) leaves the topic able to
  // schedule its next cycle.
  training_in_flight_ = false;
  train_done_cv_.notify_all();

  // (a) O(1) atomic swap: the new model/matcher become THE model.
  parser_.CommitRetrain(std::move(prepared));
  // (b) Generation bump: ids prematched (IngestBatch) or assigned online
  // against the superseded model are no longer authoritative.
  ++model_generation_;
  trained_ = true;
  ++stats_.trainings;
  stats_.last_training_seconds = train_seconds;
  stats_.last_training_threads = static_cast<uint32_t>(run.num_threads);
  stats_.model_bytes = parser_.ModelBytes();
  stats_.num_templates = parser_.model().size();

  // From here on the swap is live, so assignment-path IO errors (a
  // disk backend's sealed-segment pwrite can fail) must NOT abort the
  // remaining steps — skipping (d)'s reconciliation or (e)'s metadata
  // export would leave records pointing at the dropped model. Carry
  // the first error to the end instead; affected records keep stale
  // ids until the next training or restart recovery re-matches them.
  Status first_error;
  auto keep_first = [&first_error](Status status) {
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  };

  // (c) Re-assign the training window (retraining refines earlier
  // assignments) with the match results computed off-lock — one bulk
  // call, one store lock; the backend skips unchanged ids, so the
  // exclusive section does not pay per-record syscalls for a window
  // whose assignments mostly survived the merge.
  keep_first(topic_.AssignTemplateRange(run.window_begin, assignments));

  // (d) Records that arrived while the snapshot trained carry ids from
  // the superseded model (including temporaries the swap just dropped).
  // Re-match them against the new model in arrival order — adopting
  // misses exactly as online matching would have — so no assignment is
  // lost and the end state equals a synchronous training at the trigger
  // point. Matching is ~ns-scale per record, so this section stays far
  // below training cost.
  const uint64_t now = topic_.size();
  if (now > run.snapshot_size) {
    std::vector<std::string> tail;
    tail.reserve(now - run.snapshot_size);
    keep_first(topic_.Scan(
        run.snapshot_size, now,
        [&tail](uint64_t, const LogRecord& rec) { tail.push_back(rec.text); }));
    for (uint64_t i = 0; i < tail.size(); ++i) {
      bool adopted = false;
      const TemplateId id = parser_.MatchOrAdopt(tail[i], &adopted);
      if (adopted) ++stats_.adopted_templates;
      keep_first(topic_.AssignTemplate(run.snapshot_size + i, id));
    }
  }

  // (e) Publish node metadata (§3); overwrites per id, so entries for
  // dropped temporaries are refreshed by their successors.
  parser_.model().ExportTo(&internal_);

  // (f) Durability: STAGE the committed model for a manifest
  // checkpoint. The serialize is an O(model) copy; the expensive part
  // (drain + fsyncs + manifest rename) runs in
  // MaybeFlushStorageCheckpoint once the caller releases the exclusive
  // lock, keeping this commit section O(1)-ish as designed.
  if (topic_.persistent_storage()) {
    pending_model_checkpoint_ = parser_.model().Serialize();
    checkpoint_pending_.store(true, std::memory_order_release);
  }
  return first_error;
}

void ManagedTopic::MaybeFlushStorageCheckpoint() {
  if (!checkpoint_pending_.load(std::memory_order_acquire)) return;
  // checkpoint_mu_ serializes flushers (blobs reach the manifest in
  // staging order) and is always taken BEFORE mu_.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  std::string blob;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    blob.swap(pending_model_checkpoint_);
    checkpoint_pending_.store(false, std::memory_order_release);
  }
  // Best effort — a full disk must not fail the already-committed
  // swap; the sticky storage status reports it.
  if (!blob.empty()) (void)topic_.Checkpoint(blob);
}

Result<std::vector<TemplateGroup>> ManagedTopic::Query(
    double saturation_threshold, uint64_t begin_seq, uint64_t end_seq,
    bool collect_sequences) const {
  QueryPageRequest req;
  req.saturation_threshold = saturation_threshold;
  req.begin_seq = begin_seq;
  req.end_seq = end_seq;
  req.collect_sequences = collect_sequences;
  auto page = QueryGroups(req);
  BB_RETURN_IF_ERROR(page.status());
  return std::move(page.value().groups);
}

Result<QueryPage> ManagedTopic::QueryGroups(const QueryPageRequest& req) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const uint64_t end = std::min(req.end_seq, topic_.size());
  const uint64_t begin = std::min(req.begin_seq, end);

  // Counts per RAW stored template id, from the storage postings —
  // fully-sealed windows are answered without touching record bytes.
  // A time-range predicate routes through the range variant, which
  // prunes sealed segments via their persisted min/max timestamps and
  // keeps the postings fast path for segments fully inside the window;
  // the defaults delegate to the unfiltered path unchanged.
  std::unordered_map<TemplateId, uint64_t> raw_counts;
  BB_RETURN_IF_ERROR(topic_.TemplateCountsInRange(
      begin, end, req.min_timestamp_us, req.max_timestamp_us, &raw_counts));

  // Resolution at the threshold depends only on the template id, so it
  // runs once per DISTINCT raw id — not once per record as the old
  // scan-grouping path did.
  std::unordered_map<TemplateId, TemplateId> resolved_of;
  std::unordered_map<TemplateId, uint64_t> group_counts;
  resolved_of.reserve(raw_counts.size());
  for (const auto& [raw, n] : raw_counts) {
    TemplateId resolved = raw;
    if (raw != kInvalidTemplateId) {
      auto r = parser_.ResolveAtThreshold(raw, req.saturation_threshold);
      if (r.ok()) resolved = r.value();
    }
    resolved_of.emplace(raw, resolved);
    group_counts[resolved] += n;
  }

  // Global page order: count desc, id asc — over (count, id) pairs
  // only; nothing per page is materialized yet.
  struct Key {
    uint64_t count;
    TemplateId tid;
  };
  const auto before = [](const Key& a, const Key& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.tid < b.tid;
  };
  std::vector<Key> order;
  order.reserve(group_counts.size());
  for (const auto& [tid, n] : group_counts) order.push_back({n, tid});
  std::sort(order.begin(), order.end(), before);

  QueryPage page;
  page.total_groups = order.size();

  // Page start: the resume key seeks directly to the first group after
  // the previous page's last — O(log groups), and exact for a pinned
  // window. The positional offset is the fallback for legacy cursors.
  size_t start;
  if (req.has_resume_key) {
    const Key key{req.resume_count, req.resume_template_id};
    start = static_cast<size_t>(
        std::upper_bound(order.begin(), order.end(), key, before) -
        order.begin());
  } else {
    start = std::min<size_t>(req.offset, order.size());
  }
  size_t stop = order.size();
  if (req.max_groups > 0) {
    stop = std::min(stop, start + static_cast<size_t>(req.max_groups));
  }

  // Materialize ONLY this page's groups (template text + saturation).
  std::unordered_map<TemplateId, size_t> page_index;
  page.groups.reserve(stop - start);
  for (size_t i = start; i < stop; ++i) {
    TemplateGroup g;
    g.template_id = order[i].tid;
    g.count = order[i].count;
    if (g.template_id != kInvalidTemplateId) {
      g.template_text = parser_.MergedWildcardText(g.template_id);
      const TreeNode* node = parser_.model().node(g.template_id);
      if (node != nullptr) g.saturation = node->saturation;
    } else {
      g.template_text = "<unparsed>";
    }
    page_index.emplace(g.template_id, page.groups.size());
    page.groups.push_back(std::move(g));
  }

  // One template-filtered scan collects sequence numbers for JUST this
  // page's groups; sealed segments holding none of their raw ids are
  // skipped via the postings without being mapped.
  if (req.collect_sequences && !page.groups.empty()) {
    std::unordered_set<TemplateId> wanted;
    for (const auto& [raw, resolved] : resolved_of) {
      if (page_index.count(resolved) != 0) wanted.insert(raw);
    }
    BB_RETURN_IF_ERROR(topic_.ScanTemplatesInRange(
        begin, end, req.min_timestamp_us, req.max_timestamp_us, wanted,
        [&](uint64_t seq, TemplateId raw) {
          page.groups[page_index.at(resolved_of.at(raw))]
              .sequence_numbers.push_back(seq);
        }));
  }

  page.has_more = stop < order.size();
  page.next_offset = stop;
  if (!page.groups.empty()) {
    page.last_count = page.groups.back().count;
    page.last_template_id = page.groups.back().template_id;
  }
  return page;
}

Result<std::vector<TemplateAnomaly>> ManagedTopic::DetectAnomalies(
    uint64_t window1_begin, uint64_t window1_end, uint64_t window2_begin,
    uint64_t window2_end, double min_change_ratio) const {
  // Use maximally precise templates for comparison; counts only — the
  // comparison never looks at individual sequence numbers.
  auto before =
      Query(1.0, window1_begin, window1_end, /*collect_sequences=*/false);
  BB_RETURN_IF_ERROR(before.status());
  auto after =
      Query(1.0, window2_begin, window2_end, /*collect_sequences=*/false);
  BB_RETURN_IF_ERROR(after.status());

  std::unordered_map<TemplateId, uint64_t> before_counts;
  for (const auto& g : before.value()) before_counts[g.template_id] = g.count;

  std::vector<TemplateAnomaly> anomalies;
  for (const auto& g : after.value()) {
    const auto it = before_counts.find(g.template_id);
    TemplateAnomaly anomaly;
    anomaly.template_id = g.template_id;
    anomaly.template_text = g.template_text;
    anomaly.count_after = g.count;
    if (it == before_counts.end()) {
      anomaly.is_new = true;
      anomaly.change_ratio = static_cast<double>(g.count);
      anomalies.push_back(std::move(anomaly));
      continue;
    }
    anomaly.count_before = it->second;
    const double ratio = static_cast<double>(g.count) /
                         static_cast<double>(std::max<uint64_t>(1, it->second));
    anomaly.change_ratio = ratio;
    if (ratio >= min_change_ratio || ratio <= 1.0 / min_change_ratio) {
      anomalies.push_back(std::move(anomaly));
    }
  }
  std::sort(anomalies.begin(), anomalies.end(),
            [](const TemplateAnomaly& a, const TemplateAnomaly& b) {
              if (a.is_new != b.is_new) return a.is_new;
              return a.change_ratio > b.change_ratio;
            });
  return anomalies;
}

TopicStats ManagedTopic::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  TopicStats snapshot = stats_;
  // Derived, not maintained: the in-flight flag is the single source of
  // truth for whether a snapshot is training right now.
  snapshot.pending_trainings = training_in_flight_ ? 1 : 0;
  snapshot.storage_persistent = topic_.persistent_storage();
  snapshot.storage_ok = topic_.storage_status().ok();
  snapshot.storage_sealed_segments = topic_.sealed_segment_count();
  snapshot.storage_mapped_bytes = topic_.mapped_bytes();
  snapshot.storage_cache_hits = topic_.cache_hits();
  snapshot.storage_cache_misses = topic_.cache_misses();
  snapshot.storage_cache_evictions = topic_.cache_evictions();
  snapshot.storage_index_rebuilds = topic_.index_rebuilds();
  snapshot.storage_scan_record_visits = topic_.scan_record_visits();
  snapshot.wal_bytes = topic_.wal_bytes();
  snapshot.wal_group_commits = topic_.wal_group_commits();
  snapshot.wal_fsyncs = topic_.wal_fsyncs();
  snapshot.wal_replayed_records = topic_.wal_replayed_records();
  return snapshot;
}

bool ManagedTopic::trained() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return trained_;
}

uint64_t ManagedTopic::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.size();
}

Result<LogRecord> ManagedTopic::ReadRecord(uint64_t seq) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.Read(seq);
}

Status ManagedTopic::ScanRecords(
    uint64_t begin_seq, uint64_t end_seq,
    const std::function<void(uint64_t, const LogRecord&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.Scan(begin_seq, std::min(end_seq, topic_.size()), fn);
}

Status ManagedTopic::StorageStatus() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.storage_status();
}

Status ManagedTopic::PersistTo(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.PersistTo(path);
}

bool ManagedTopic::HasTemplate(TemplateId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return parser_.model().node(id) != nullptr;
}

std::vector<std::string> ManagedTopic::TemplateTexts() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> texts;
  texts.reserve(parser_.model().size());
  for (const TreeNode& node : parser_.model().nodes()) {
    texts.push_back(parser_.TemplateText(node.id));
  }
  return texts;
}

TopicConfig ManagedTopic::config() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return config_;
}

Status ManagedTopic::ReplicationRead(uint64_t segment_index, uint64_t offset,
                                     uint64_t max_bytes,
                                     ReplicationChunk* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.ReplicationRead(segment_index, offset, max_bytes, out);
}

Status ManagedTopic::ReplicationPosition(uint64_t* segment_index,
                                         uint64_t* offset) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.ReplicationPosition(segment_index, offset);
}

Status ManagedTopic::VerifySealedSegment(uint64_t segment_index,
                                         uint64_t expect_records,
                                         uint64_t expect_checksum) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return topic_.VerifySealedSegment(segment_index, expect_records,
                                    expect_checksum);
}

Status ManagedTopic::ApplyReplicated(std::vector<LogRecord> records) {
  if (records.empty()) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const LogRecord& rec : records) {
    stats_.ingested_bytes += rec.text.size();
  }
  stats_.ingested_records += records.size();
  // No matching, no adoption, no training triggers: the stream carries
  // the primary's template assignments, and applying them through the
  // ordinary append path reproduces the primary's frames byte for byte
  // (same config ⇒ same seal boundaries).
  topic_.AppendBatch(std::move(records));
  lock.unlock();
  (void)topic_.WaitDurable();
  // Surface a sticky storage failure to the replicator: records that
  // only live in this follower's memory are NOT replicated — the
  // follower must stop claiming it holds the primary's bytes.
  return topic_.storage_status();
}

Status ManagedTopic::ApplyReplicatedModel(const std::string& blob) {
  auto model = TemplateModel::Deserialize(blob);
  BB_RETURN_IF_ERROR(model.status());
  std::unique_lock<std::shared_mutex> lock(mu_);
  PreparedRetrain prepared;
  prepared.model = std::move(model).value();
  prepared.matcher = std::make_unique<TemplateMatcher>(prepared.model,
                                                       &parser_.replacer());
  parser_.CommitRetrain(std::move(prepared));
  trained_ = true;
  ++model_generation_;
  stats_.num_templates = parser_.model().size();
  stats_.model_bytes = parser_.ModelBytes();
  parser_.model().ExportTo(&internal_);
  return Status::OK();
}

Status ManagedTopic::SealTail(bool* sealed) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const uint64_t before = topic_.sealed_segment_count();
  Status s = topic_.SealActive();
  if (s.IsNotSupported()) {
    // Memory-backed topic: no frame representation, nothing to seal.
    if (sealed != nullptr) *sealed = false;
    return Status::OK();
  }
  if (sealed != nullptr) *sealed = topic_.sealed_segment_count() > before;
  return s;
}

void ManagedTopic::SetReplicationLag(uint64_t lag_bytes, uint64_t lag_records,
                                     uint64_t lag_segments) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  stats_.replication_lag_bytes = lag_bytes;
  stats_.replication_lag_records = lag_records;
  stats_.replication_lag_segments = lag_segments;
}

uint64_t ManagedTopic::ModelGeneration() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return model_generation_;
}

std::string ManagedTopic::SerializedModel() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return parser_.model().Serialize();
}

namespace {
// Applies the present fields of `patch` onto `config` (shared by the
// validation dry run and the real apply — one rule set, no drift).
void ApplyPatch(const TopicConfigPatch& patch, TopicConfig* config) {
  if (patch.train_volume_bytes) {
    config->train_volume_bytes = *patch.train_volume_bytes;
  }
  if (patch.train_interval_records) {
    config->train_interval_records = *patch.train_interval_records;
  }
  if (patch.initial_train_records) {
    config->initial_train_records = *patch.initial_train_records;
  }
  if (patch.max_train_records) {
    config->max_train_records = *patch.max_train_records;
  }
  if (patch.num_threads) config->num_threads = *patch.num_threads;
  if (patch.async_training) config->async_training = *patch.async_training;
  if (patch.num_ingest_shards) {
    config->num_ingest_shards = *patch.num_ingest_shards;
  }
}
}  // namespace

Status ManagedTopic::UpdateConfig(const TopicConfigPatch& patch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Dry-run the patch against the live config and validate the RESULT
  // with the same knob rules CreateTopic enforces — one rule set, and
  // a rejected patch applies nothing. Knobs only: a patch cannot touch
  // rules or storage, so no regex recompilation under the lock.
  TopicConfig patched = config_;
  ApplyPatch(patch, &patched);
  BB_RETURN_IF_ERROR(ValidateTopicKnobs(patched));
  config_ = std::move(patched);
  return Status::OK();
}

Result<std::shared_ptr<ManagedTopic>> LogService::CreateTopic(
    const std::string& name, TopicConfig config) {
  // A bad config fails HERE, named, instead of leaking to first use
  // (an uncompilable rule silently skipped, a zero window hanging the
  // first training trigger).
  BB_RETURN_IF_ERROR(ValidateTopicConfig(config));
  // Construction can be expensive for a disk-backed topic (manifest
  // replay, checksum verification of every sealed byte, re-matching) —
  // run it OUTSIDE the catalog lock so other topics' lookups never
  // stall on a recovery. The name is reserved with a null entry first;
  // lookups treat the placeholder as not-yet-existing.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = topics_.emplace(name, nullptr);
    if (!inserted) {
      return Status::AlreadyExists("topic '" + name + "' already exists");
    }
  }
  std::shared_ptr<ManagedTopic> topic;
  try {
    topic = std::make_shared<ManagedTopic>(name, std::move(config));
  } catch (...) {
    // Construction threw (allocation, thread creation): release the
    // reservation or the name would be wedged — AlreadyExists on
    // create, NotFound on lookup — until restart.
    std::lock_guard<std::mutex> lock(mu_);
    topics_.erase(name);
    throw;
  }
  // A topic whose storage failed to open runs on an empty in-memory
  // fallback; for the service API that is a failed creation — the
  // caller asked for durability it would not get.
  const Status storage = topic->StorageStatus();
  std::lock_guard<std::mutex> lock(mu_);
  if (!storage.ok()) {
    topics_.erase(name);
    return storage;
  }
  auto it = topics_.find(name);
  it->second = std::move(topic);
  return it->second;
}

Result<std::shared_ptr<ManagedTopic>> LogService::GetTopic(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = topics_.find(name);
  // A null entry is a reservation: the topic is still constructing
  // (recovering) on the creator's thread.
  if (it == topics_.end() || it->second == nullptr) {
    return Status::NotFound("topic '" + name + "' does not exist");
  }
  return it->second;
}

Status LogService::DeleteTopic(const std::string& name, bool purge_storage) {
  std::shared_ptr<ManagedTopic> topic;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = topics_.find(name);
    if (it == topics_.end()) {
      return Status::NotFound("topic '" + name + "' does not exist");
    }
    if (it->second == nullptr) {
      // Creation (possibly a long disk recovery) is still running on
      // another thread; deleting the reservation out from under it
      // would wedge that CreateTopic. Callers retry.
      return Status::Aborted("topic '" + name +
                             "' is still being created; retry");
    }
    topic = std::move(it->second);
    topics_.erase(it);
  }
  // Destruction happens OUTSIDE the catalog lock (it drains the topic's
  // in-flight training). Wait for concurrent holders (in-flight
  // operations that resolved the topic before it left the catalog) so
  // the destructor runs HERE, on this thread, before we return: a
  // late-firing destructor could otherwise remove_all() a storage
  // directory that a subsequent CreateTopic at the same path has
  // already reopened. In-flight operations finish and release, so the
  // wait is short; it is BOUNDED anyway so a caller that retained its
  // own shared_ptr (don't — release handles before deleting) hangs
  // nothing: past the deadline, destruction and the purge defer to the
  // final release, reverting to last-holder semantics.
  if (purge_storage) topic->SetPurgeStorageOnDestroy(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (topic.use_count() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (topic.use_count() > 1) {
    // A holder outlived the drain window: destruction defers to its
    // final release — and the PURGE is cancelled, because by then a
    // CreateTopic may have reopened the same directory and a late
    // remove_all() would destroy the successor's live data. The
    // directory is left on disk (recoverable / manual cleanup) —
    // strictly safer than a delayed destructive purge.
    topic->SetPurgeStorageOnDestroy(false);
  }
  topic.reset();
  return Status::OK();
}

std::vector<std::string> LogService::TopicNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) {
    if (topic != nullptr) names.push_back(name);
  }
  return names;
}

}  // namespace bytebrain
