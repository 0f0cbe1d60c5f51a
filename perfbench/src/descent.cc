#include "descent.h"

#include <algorithm>
#include <filesystem>

#include "core/parser.h"
#include "logstore/log_topic.h"
#include "net/client.h"
#include "replication/replicator.h"

namespace perfbench {

namespace api = bytebrain::api;
using bytebrain::Status;
using bytebrain::TopicStats;

namespace {

/// Open-loop batches and queries replayed per layer.
constexpr size_t kMaxBatches = 200;
constexpr size_t kMaxQueries = 300;
constexpr size_t kMaxPulls = 64;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t bytes = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

struct ShardTotals {
  double memo = 0;
  double resolved = 0;
};

ShardTotals Shards(const TopicStats& s) {
  ShardTotals t;
  for (const auto& shard : s.shards) {
    t.memo += static_cast<double>(shard.memo_hits);
    t.resolved += static_cast<double>(shard.memo_hits + shard.matched_shared +
                                      shard.matched_pending);
  }
  return t;
}

class Timer {
 public:
  explicit Timer(std::vector<LayerSpan>* spans, const char* layer, uint64_t id)
      : spans_(spans), layer_(layer), id_(id), start_(NowNs()) {}
  /// Ends the span; returns its length in microseconds.
  double Stop() {
    const uint64_t end = NowNs();
    spans_->push_back({layer_, id_, start_, end});
    return static_cast<double>(end - start_) / 1e3;
  }

 private:
  std::vector<LayerSpan>* spans_;
  const char* layer_;
  uint64_t id_;
  uint64_t start_;
};

}  // namespace

DescentResult RunDescent(const WorkloadSpec& spec, const Inputs& inputs,
                         Service* service, const PassResult& pass,
                         const std::string& scratch_dir) {
  DescentResult d;
  auto add = [&d](const char* name, double value, const char* unit) {
    d.metrics.push_back({name, value, unit});
  };
  auto check = [&d](bool ok, const std::string& what) {
    ++d.attempted;
    if (!ok) {
      ++d.failed;
      if (d.check_failures.size() < 5) d.check_failures.push_back(what);
    }
  };

  std::vector<std::string_view> texts(inputs.labels.size());
  for (const auto& stream : inputs.streams) {
    for (const Batch& b : stream) {
      const api::IngestBatchRequestView v = DecodeBatch(b);
      for (uint32_t i = 0; i < b.count; ++i) texts[b.first + i] = v.texts[i];
    }
  }
  const std::vector<Batch>& open = inputs.streams[2];
  std::vector<const Batch*> replay;
  for (size_t k = 0; k < pass.open_batches.size() && k < kMaxBatches;
       ++k) {
    replay.push_back(&open[pass.open_batches[k]]);
  }
  double replay_records = 0;
  for (const Batch* b : replay) replay_records += b->count;
  const double batches = static_cast<double>(replay.size());

  // 6. Replication: ReplPull round trips, then a fresh follower rebuilt
  // over TCP. An in-memory topic has no frame stream to ship, so its
  // workload replicates a disk-backed twin holding the replayed batches.
  {
    std::unique_ptr<Service> twin;
    Service* primary = service;
    if (spec.topic.storage.kind !=
        bytebrain::StorageConfig::Kind::kSegmentedDisk) {
      WorkloadSpec twin_spec = spec;
      twin_spec.topic.storage.kind =
          bytebrain::StorageConfig::Kind::kSegmentedDisk;
      twin_spec.topic.storage.segment_data_bytes = 4ull << 20;
      twin = std::make_unique<Service>(twin_spec, scratch_dir + "/twin");
      check(twin->Start().ok(), "twin server start");
      api::CreateTopicRequest create;
      create.name = kTopic;
      create.config = twin_spec.topic;
      api::CreateTopicResponse created;
      check(twin->frontend()->CreateTopic(kTenant, create, &created).ok(),
            "twin CreateTopic");
      for (const Batch* b : replay) {
        api::ServiceFrontend::DispatchInfo info;
        (void)twin->frontend()->Dispatch(b->envelope(), &info);
        check(info.code == Status::Code::kOk, "twin IngestBatch");
      }
      primary = twin.get();
    }
    const std::string full_name = std::string(kTenant) + "/" + kTopic;

    bytebrain::net::NetClient client;
    check(client.Connect("127.0.0.1", primary->port()).ok(), "ReplPull connect");
    client.set_auth_token(kReplicationToken);
    api::ReplPullRequest req;
    req.topic = full_name;
    std::vector<double> pull_us;
    for (size_t i = 0; i < kMaxPulls; ++i) {
      api::ReplPullResponse resp;
      Timer t(&d.spans, "replication.pull", i);
      const Status s = client.Call(api::ApiMethod::kReplPull, "", req, &resp);
      pull_us.push_back(t.Stop());
      check(s.ok(), "ReplPull: " + s.ToString());
      if (!s.ok()) break;
      if (resp.has_model) req.model_generation = resp.model_generation;
      if (!resp.data.empty()) {
        req.offset += resp.data.size();
      } else if (resp.segment_sealed) {
        ++req.segment_index;
        req.offset = 0;
      } else {
        break;
      }
    }
    add("replication.pull_us", Mean(pull_us), "us");

    const std::string follower_root = scratch_dir + "/follower";
    api::FrontendConfig fc;
    fc.storage_root = follower_root;
    fc.replication_token = kReplicationToken;
    fc.start_as_follower = true;
    api::ServiceFrontend follower(fc);
    bytebrain::replication::ReplicatorConfig rc;
    rc.primary_port = primary->port();
    rc.replication_token = kReplicationToken;
    rc.storage_root = follower_root;
    bytebrain::replication::Replicator replicator(&follower, rc);
    Timer t(&d.spans, "replication.rebuild", 0);
    const Status caught_up = replicator.WaitCaughtUp(120'000);
    const double rebuild_s = t.Stop() / 1e6;
    const auto rstats = replicator.stats();
    check(caught_up.ok(), "follower rebuild: " + caught_up.ToString());
    auto mirrored = follower.service()->GetTopic(full_name);
    const uint64_t primary_records = primary->Topic(kTopic)->size();
    const uint64_t follower_records =
        mirrored.ok() ? mirrored.value()->size() : 0;
    check(follower_records == primary_records,
          "follower mirrors " + std::to_string(follower_records) +
              " records of the primary's " + std::to_string(primary_records));
    check(rstats.divergences == 0,
          "follower rebuild diverged " + std::to_string(rstats.divergences) +
              " times");
    add("replication.rebuild_s", rebuild_s, "s");
    add("replication.apply_mb_per_s",
        Ratio(static_cast<double>(rstats.applied_bytes) / 1e6, rebuild_s),
        "MB/s");
    add("replication.pulls", static_cast<double>(rstats.pulls), "count");
  }

  // Replay topics in the set-up state: same config, trained on the same
  // prefix.
  const size_t prefix_batches =
      (spec.topic.initial_train_records + 1023) / 1024;
  for (const char* name : {"wire", "dispatch", "svc"}) {
    const Status s =
        PrepareTopic(spec, inputs, name, service, prefix_batches);
    check(s.ok(), std::string("replay topic ") + name + ": " + s.ToString());
  }
  std::vector<std::string> wire_frames;
  std::vector<std::string> dispatch_frames;
  std::vector<api::IngestBatchRequestView> views;
  for (const Batch* b : replay) {
    wire_frames.push_back(ReencodeBatch(*b, kTenant, "wire"));
    dispatch_frames.push_back(ReencodeBatch(*b, kTenant, "dispatch"));
    views.push_back(DecodeBatch(*b));
  }
  bytebrain::ByteBrainParser parser(spec.topic.parser_options);
  for (const auto& [name, pattern] : spec.topic.variable_rules) {
    check(parser.AddVariableRule(name, pattern).ok(), "variable rule");
  }
  check(parser
            .Train(std::vector<std::string>(
                texts.begin(),
                texts.begin() + static_cast<long>(std::min<size_t>(
                                    spec.topic.initial_train_records,
                                    texts.size()))))
            .ok(),
        "core Train");
  bytebrain::StorageConfig storage = spec.topic.storage;
  storage.durability = spec.topic.durability;
  storage.directory = scratch_dir + "/logtopic";
  bytebrain::LogTopic log("descent", storage);
  check(log.storage_status().ok(), "LogTopic open");
  bytebrain::net::NetClient client;
  check(client.Connect("127.0.0.1", service->port()).ok(), "wire connect");
  auto svc_topic = service->Topic("svc");
  check(svc_topic != nullptr, "replay topic svc missing");

  // Batch k goes down every layer before batch k+1, so each layer sees
  // the same machine state over the replay.
  std::vector<double> wire_us, dispatch_us, topic_us, match_us, append_us,
      durable_us;
  double misses = 0;
  for (size_t k = 0; k < replay.size() && svc_topic; ++k) {
    {  // 1. Wire round trip.
      Timer t(&d.spans, "wire", k);
      std::string payload;
      Status s = client.SendRaw(wire_frames[k]);
      if (s.ok()) s = client.ReceiveFrame(&payload);
      wire_us.push_back(t.Stop());
      api::IngestBatchResponse resp;
      if (s.ok()) s = api::DecodeResponse(payload, &resp);
      check(s.ok(), "wire replay: " + s.ToString());
    }
    {  // 2. Dispatch.
      api::ServiceFrontend::DispatchInfo info;
      Timer t(&d.spans, "api.dispatch", k);
      (void)service->frontend()->Dispatch(
          std::string_view(dispatch_frames[k]).substr(4), &info);
      dispatch_us.push_back(t.Stop());
      check(info.code == Status::Code::kOk, "Dispatch replay failed");
    }
    {  // 3. ManagedTopic::IngestBatch.
      Timer t(&d.spans, "service.ingest", k);
      const auto seqs =
          svc_topic->IngestBatch(views[k].texts, views[k].timestamps_us);
      topic_us.push_back(t.Stop());
      check(seqs.ok(), "ManagedTopic::IngestBatch replay failed");
    }
    {  // 4. Core matching.
      Timer t(&d.spans, "core.match", k);
      const auto ids = parser.MatchAll(views[k].texts, 1);
      match_us.push_back(t.Stop());
      for (auto id : ids) misses += id == bytebrain::kInvalidTemplateId;
    }
    {  // 5. Logstore.
      std::vector<bytebrain::LogRecord> records;
      for (size_t i = 0; i < views[k].texts.size(); ++i) {
        records.push_back({views[k].timestamps_us[i],
                           std::string(views[k].texts[i]),
                           bytebrain::kInvalidTemplateId});
      }
      Timer t(&d.spans, "logstore.append", k);
      log.AppendBatch(std::move(records));
      append_us.push_back(t.Stop());
      Timer w(&d.spans, "logstore.wait_durable", k);
      check(log.WaitDurable().ok(), "WaitDurable failed");
      durable_us.push_back(w.Stop());
    }
  }

  // 4b. Core training: PrepareRetrain on the window the pass's first
  // TrainNow retrained, from the model that TrainNow started with.
  double train_s = 0;
  {
    const size_t total = std::min<size_t>(pass.first_retrain_records,
                                          pass.seq_records.size());
    const size_t window =
        std::min<size_t>(spec.topic.max_train_records, total);
    std::vector<std::string_view> window_texts;
    for (size_t s = total - window; s < total; ++s) {
      const uint32_t rec = pass.seq_records[s];
      if (rec != UINT32_MAX) window_texts.push_back(texts[rec]);
    }
    auto base = bytebrain::TemplateModel::Deserialize(pass.model_before_retrain);
    check(base.ok(), "model before TrainNow does not deserialize");
    if (base.ok()) {
      Timer t(&d.spans, "core.prepare_retrain", 0);
      auto prepared =
          parser.PrepareRetrain(std::move(base).value(), window_texts);
      train_s = t.Stop() / 1e6;
      check(prepared.ok(), "PrepareRetrain failed");
    }
  }
  // Queries: Dispatch on the frames sent, QueryGroups on what the
  // frontend resolves them to. Alternating which goes first shares the
  // segment cache's warmth evenly between the two.
  std::vector<double> qdispatch_us;
  std::vector<double> qgroups_us;
  double scan_visits = 0;
  {
    auto topic = service->Topic(kTopic);
    const TopicStats before = service->Stats();
    const size_t q = std::min(kMaxQueries, pass.queries.size());
    for (size_t i = 0; i < q && topic; ++i) {
      const RecordedQuery& rq = pass.queries[i];
      auto run_dispatch = [&] {
        api::ServiceFrontend::DispatchInfo info;
        Timer t(&d.spans, "api.query_dispatch", i);
        (void)service->frontend()->Dispatch(
            std::string_view(rq.frame).substr(4), &info);
        qdispatch_us.push_back(t.Stop());
        check(info.code == Status::Code::kOk, "query Dispatch replay failed");
      };
      auto run_groups = [&] {
        Timer t(&d.spans, "service.query_groups", i);
        const auto page = topic->QueryGroups(rq.page);
        qgroups_us.push_back(t.Stop());
        check(page.ok(), "QueryGroups replay failed");
      };
      if (i % 2 == 0) {
        run_dispatch();
        run_groups();
      } else {
        run_groups();
        run_dispatch();
      }
    }
    const TopicStats after = service->Stats();
    scan_visits = Ratio(static_cast<double>(after.storage_scan_record_visits -
                                            before.storage_scan_record_visits),
                        2.0 * static_cast<double>(q));
  }

  // Self times: each layer's call minus the layer below it.
  const double wire = Mean(wire_us);
  const double dispatch = Mean(dispatch_us);
  const double topic = Mean(topic_us);
  const double core = Mean(match_us);
  const double append = Mean(append_us);
  const double durable = Mean(durable_us);
  add("wire.us_per_batch", wire, "us");
  add("net.self_us_per_batch", wire - dispatch, "us");
  add("api.self_us_per_batch", dispatch - topic, "us");
  // A sharded topic never hands the batch to MatchAll: it resolves each
  // distinct shape through its shards' memos and matchers, which is
  // ManagedTopic's own work, so only the storage layer is below it.
  const double below_service =
      (spec.topic.num_ingest_shards > 1 ? 0 : core) + append + durable;
  add("service.self_us_per_batch", topic - below_service, "us");
  add("api.query_self_us", Mean(qdispatch_us) - Mean(qgroups_us), "us");
  add("service.query_us_per_page", Mean(qgroups_us), "us");
  add("service.scan_visits_per_page", scan_visits, "count");
  add("service.retrain_overhead_s",
      (pass.retrain_samples_s.empty() ? 0 : pass.retrain_samples_s[0]) -
          train_s,
      "s");
  add("core.match_ns_per_log",
      Ratio(core * batches * 1e3, replay_records), "ns");
  add("core.miss_ratio", Ratio(misses, replay_records), "ratio");
  add("core.train_s", train_s, "s");
  add("core.templates", static_cast<double>(pass.stats_end.num_templates),
      "count");
  add("logstore.append_us_per_batch", append, "us");
  add("logstore.wait_durable_us", durable, "us");
  add("contention_wait_us", pass.open_ack_from_send_us - wire, "us");

  // Counts from the public stats of the traced pass.
  const TopicStats& s0 = pass.stats_before;
  const TopicStats& s1 = pass.stats_ingested;
  const TopicStats& s2 = pass.stats_end;
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double ingested = delta(s0.ingested_records, s1.ingested_records);
  add("net.bytes_per_record",
      Ratio(delta(pass.tcp_before.bytes_read, pass.tcp_ingested.bytes_read),
            ingested),
      "B");
  add("net.watermark_pauses",
      delta(pass.tcp_before.watermark_pauses, pass.tcp_end.watermark_pauses),
      "count");
  add("service.adopt_ratio",
      Ratio(delta(s0.adopted_templates, s1.adopted_templates), ingested),
      "ratio");
  const ShardTotals m0 = Shards(s0);
  const ShardTotals m1 = Shards(s1);
  add("service.memo_hit_ratio",
      Ratio(m1.memo - m0.memo, m1.resolved - m0.resolved), "ratio");
  const double fsyncs = delta(s0.wal_fsyncs, s1.wal_fsyncs);
  add("logstore.fsyncs_per_batch",
      Ratio(fsyncs, static_cast<double>(pass.ingest_batches)), "count");
  add("logstore.commits_per_fsync",
      Ratio(delta(s0.wal_group_commits, s1.wal_group_commits), fsyncs),
      "count");
  add("logstore.seals",
      delta(s0.storage_sealed_segments, s1.storage_sealed_segments), "count");
  const double hits = delta(s0.storage_cache_hits, s2.storage_cache_hits);
  const double misses_c =
      delta(s0.storage_cache_misses, s2.storage_cache_misses);
  add("logstore.cache_hit_ratio", Ratio(hits, hits + misses_c), "ratio");
  add("logstore.cache_evictions",
      delta(s0.storage_cache_evictions, s2.storage_cache_evictions), "count");
  add("logstore.index_rebuilds",
      static_cast<double>(s2.storage_index_rebuilds), "count");
  const bool disk = spec.topic.storage.kind ==
                    bytebrain::StorageConfig::Kind::kSegmentedDisk;
  add("logstore.disk_bytes_per_log_byte",
      disk ? Ratio(static_cast<double>(DirBytes(
                       service->root() + "/store/" + kTenant + "/" + kTopic)),
                   static_cast<double>(s2.ingested_bytes))
           : 0,
      "ratio");
  return d;
}

}  // namespace perfbench
