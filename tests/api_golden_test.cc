// Golden wire bytes for the service API. Every message type is pinned
// twice — default-constructed and fully populated (every field away
// from its default, repeated fields with two or more entries) — plus
// the envelope helpers (EncodeRequest, EncodeResponse in OK and error
// form) and a real query cursor minted by a paged Dispatch Query. Each
// case asserts the exact bytes and that decode followed by re-encode
// reproduces them, so any codec rewrite must stay byte-identical with
// the deployed wire format. A second battery pins the status CODE of
// each class of malformed input.
//
// The table at the bottom holds the recorded encodings. A case whose
// name is missing from it fails and prints `GOLDEN <name> <hex>`, which
// is how a new case is recorded.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/frontend.h"
#include "api/messages.h"
#include "util/serde.h"

namespace bytebrain {
namespace api {
namespace {

extern const std::map<std::string, std::string> kGolden;

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  return hex;
}

void ExpectBytes(const std::string& name, std::string_view bytes) {
  const auto it = kGolden.find(name);
  if (it == kGolden.end()) {
    ADD_FAILURE() << "GOLDEN " << name << " " << Hex(bytes);
    return;
  }
  EXPECT_EQ(Hex(bytes), it->second) << name;
}

template <typename Msg>
std::string Encode(const Msg& msg) {
  std::string bytes;
  msg.EncodeTo(&bytes);
  return bytes;
}

/// Pins `msg`'s encoding and checks decode → re-encode is the identity.
template <typename Msg>
void ExpectGolden(const std::string& name, const Msg& msg) {
  const std::string bytes = Encode(msg);
  ExpectBytes(name, bytes);
  Msg decoded;
  ASSERT_TRUE(decoded.DecodeFrom(bytes).ok()) << name;
  EXPECT_EQ(Hex(Encode(decoded)), Hex(bytes)) << name << " re-encode";
}

TopicConfig FullConfig() {
  TopicConfig c;
  c.train_volume_bytes = 1111;
  c.train_interval_records = 2222;
  c.initial_train_records = 3333;
  c.max_train_records = 4444;
  c.num_threads = 3;
  c.num_ingest_shards = 4;
  c.async_training = false;
  c.sync_initial_training = false;
  c.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  c.storage.directory = "/var/bb";
  c.storage.segment_data_bytes = 5555;
  c.storage.memory_segment_capacity = 6666;
  c.variable_rules = {{"hex", "0x[0-9a-f]+"}, {"id", "id-[0-9]+"}};
  c.durability = DurabilityMode::kWalGroupCommit;
  return c;
}

TopicConfigPatch FullPatch() {
  TopicConfigPatch p;
  p.train_volume_bytes = 11;
  p.train_interval_records = 22;
  p.initial_train_records = 33;
  p.max_train_records = 44;
  p.num_threads = 5;
  p.num_ingest_shards = 6;
  p.async_training = false;
  return p;
}

TemplateGroup FullGroup(uint64_t id) {
  TemplateGroup g;
  g.template_id = id;
  g.template_text = "user * logged in from *";
  g.saturation = 0.75;
  g.count = 3 * id;
  g.sequence_numbers = {id, id + 10, id + 20};
  return g;
}

TopicStats FullStats() {
  TopicStats s;
  s.ingested_records = 1;
  s.ingested_bytes = 2;
  s.trainings = 3;
  s.matched_online = 4;
  s.adopted_templates = 5;
  s.model_bytes = 6;
  s.last_training_seconds = 7.5;
  s.last_training_threads = 8;
  s.num_templates = 9;
  s.async_trainings = 10;
  s.pending_trainings = 11;
  s.coalesced_triggers = 12;
  s.failed_trainings = 13;
  s.last_swap_seconds = 14.25;
  for (uint64_t i = 1; i <= 3; ++i) {
    ShardStats shard;
    shard.records = 100 * i + 1;
    shard.bytes = 100 * i + 2;
    shard.matched_shared = 100 * i + 3;
    shard.matched_pending = 100 * i + 4;
    shard.adopted = 100 * i + 5;
    shard.merges = 100 * i + 6;
    shard.memo_hits = 100 * i + 7;
    s.shards.push_back(shard);
  }
  s.shard_merges = 15;
  s.storage_persistent = true;
  s.storage_ok = false;
  s.storage_sealed_segments = 16;
  s.storage_mapped_bytes = 17;
  s.recovered_records = 18;
  s.last_snapshot_copied_records = 19;
  s.last_snapshot_mapped_records = 20;
  s.wal_bytes = 21;
  s.wal_group_commits = 22;
  s.wal_fsyncs = 23;
  s.wal_replayed_records = 24;
  s.storage_cache_hits = 25;
  s.storage_cache_misses = 26;
  s.storage_cache_evictions = 27;
  s.storage_index_rebuilds = 28;
  s.storage_scan_record_visits = 29;
  s.replication_lag_bytes = 30;
  s.replication_lag_records = 31;
  s.replication_lag_segments = 32;
  s.replica_role = 1;
  return s;
}

// ---------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------

TEST(ApiGoldenTest, RequestEnvelope) {
  ExpectGolden("RequestEnvelope/default", RequestEnvelope());
  RequestEnvelope v1;
  v1.api_version = 1;
  v1.method = ApiMethod::kIngestBatch;
  v1.tenant = "acme";
  v1.payload = std::string("body\0bytes", 10);
  ExpectGolden("RequestEnvelope/v1", v1);
  RequestEnvelope v2 = v1;
  v2.api_version = kApiVersion;
  v2.request_id = 0x0102030405060708ull;
  v2.auth_token = "s3cret";
  ExpectGolden("RequestEnvelope/v2", v2);

  // The view decoder reads the same bytes into borrowed fields.
  const std::string bytes = Encode(v2);
  RequestEnvelopeView view;
  ASSERT_TRUE(view.DecodeFrom(bytes).ok());
  RequestEnvelope from_view;
  from_view.api_version = view.api_version;
  from_view.method = view.method;
  from_view.tenant = std::string(view.tenant);
  from_view.payload = std::string(view.payload);
  from_view.request_id = view.request_id;
  from_view.auth_token = std::string(view.auth_token);
  EXPECT_EQ(Hex(Encode(from_view)), Hex(bytes));
}

TEST(ApiGoldenTest, ResponseEnvelope) {
  ExpectGolden("ResponseEnvelope/default", ResponseEnvelope());
  ResponseEnvelope error;
  error.status = Status::ResourceExhausted("slow down");
  error.retry_after_us = 12345;
  ExpectGolden("ResponseEnvelope/error", error);
  ResponseEnvelope full;
  full.status = Status::OK();
  full.retry_after_us = 9;
  full.payload = "payload";
  full.request_id = 77;
  ExpectGolden("ResponseEnvelope/full", full);
}

TEST(ApiGoldenTest, EncodeRequestAndResponse) {
  QueryRequest query;
  query.topic = "events";
  query.max_groups = 2;
  const std::string plain =
      EncodeRequest(ApiMethod::kQuery, "acme", query, 0, {});
  ExpectBytes("EncodeRequest/plain", plain);
  const std::string v2 =
      EncodeRequest(ApiMethod::kQuery, "acme", query, 42, "token");
  ExpectBytes("EncodeRequest/v2", v2);
  for (const std::string& bytes : {plain, v2}) {
    RequestEnvelope env;
    ASSERT_TRUE(env.DecodeFrom(bytes).ok());
    QueryRequest body;
    ASSERT_TRUE(body.DecodeFrom(env.payload).ok());
    const std::string again = EncodeRequest(env.method, env.tenant, body,
                                            env.request_id, env.auth_token);
    EXPECT_EQ(Hex(again), Hex(bytes));
    // And the envelope struct encodes the same bytes.
    EXPECT_EQ(Hex(Encode(env)), Hex(bytes));
  }

  IngestBatchResponse seqs;
  seqs.seqs = {5, 6, 7};
  const std::string ok = EncodeResponse(Status::OK(), 0, &seqs, 99);
  ExpectBytes("EncodeResponse/ok", ok);
  IngestBatchResponse got;
  uint64_t retry = 1;
  uint64_t rid = 0;
  ASSERT_TRUE(DecodeResponse(ok, &got, &retry, &rid).ok());
  EXPECT_EQ(retry, 0u);
  EXPECT_EQ(Hex(EncodeResponse(Status::OK(), retry, &got, rid)), Hex(ok));

  const std::string error = EncodeResponse<IngestBatchResponse>(
      Status::ResourceExhausted("quota"), 2500, &seqs, 7);
  ExpectBytes("EncodeResponse/error", error);
  ResponseEnvelope env;
  ASSERT_TRUE(env.DecodeFrom(error).ok());
  EXPECT_TRUE(env.status.IsResourceExhausted());
  const std::string again = EncodeResponse<IngestBatchResponse>(
      env.status, env.retry_after_us, nullptr, env.request_id);
  EXPECT_EQ(Hex(again), Hex(error));
}

// ---------------------------------------------------------------------
// Config payloads and topic lifecycle
// ---------------------------------------------------------------------

void ExpectConfigGolden(const std::string& name, const TopicConfig& config) {
  std::string bytes;
  EncodeTopicConfig(config, &bytes);
  ExpectBytes(name, bytes);
  TopicConfig decoded;
  ASSERT_TRUE(DecodeTopicConfig(bytes, &decoded).ok());
  std::string again;
  EncodeTopicConfig(decoded, &again);
  EXPECT_EQ(Hex(again), Hex(bytes)) << name;
}

void ExpectPatchGolden(const std::string& name, const TopicConfigPatch& patch) {
  std::string bytes;
  EncodeTopicConfigPatch(patch, &bytes);
  ExpectBytes(name, bytes);
  TopicConfigPatch decoded;
  ASSERT_TRUE(DecodeTopicConfigPatch(bytes, &decoded).ok());
  std::string again;
  EncodeTopicConfigPatch(decoded, &again);
  EXPECT_EQ(Hex(again), Hex(bytes)) << name;
}

TEST(ApiGoldenTest, TopicConfigAndPatch) {
  ExpectConfigGolden("TopicConfig/default", TopicConfig());
  ExpectConfigGolden("TopicConfig/full", FullConfig());
  ExpectPatchGolden("TopicConfigPatch/default", TopicConfigPatch());
  ExpectPatchGolden("TopicConfigPatch/full", FullPatch());
}

TEST(ApiGoldenTest, TopicLifecycle) {
  ExpectGolden("CreateTopicRequest/default", CreateTopicRequest());
  CreateTopicRequest create;
  create.name = "events";
  create.config = FullConfig();
  ExpectGolden("CreateTopicRequest/full", create);
  ExpectGolden("CreateTopicResponse/default", CreateTopicResponse());

  ExpectGolden("UpdateTopicConfigRequest/default", UpdateTopicConfigRequest());
  UpdateTopicConfigRequest update;
  update.name = "events";
  update.patch = FullPatch();
  ExpectGolden("UpdateTopicConfigRequest/full", update);
  ExpectGolden("UpdateTopicConfigResponse/default",
               UpdateTopicConfigResponse());

  ExpectGolden("DeleteTopicRequest/default", DeleteTopicRequest());
  DeleteTopicRequest drop;
  drop.name = "events";
  drop.purge_storage = false;
  ExpectGolden("DeleteTopicRequest/full", drop);
  ExpectGolden("DeleteTopicResponse/default", DeleteTopicResponse());

  ExpectGolden("ListTopicsRequest/default", ListTopicsRequest());
  ExpectGolden("ListTopicsResponse/default", ListTopicsResponse());
  ListTopicsResponse list;
  list.names = {"alpha", "beta", ""};
  ExpectGolden("ListTopicsResponse/full", list);
}

// ---------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------

TEST(ApiGoldenTest, Ingest) {
  ExpectGolden("IngestRequest/default", IngestRequest());
  IngestRequest one;
  one.topic = "t";
  one.text = "hello world";
  one.timestamp_us = 1700000000000000ull;
  ExpectGolden("IngestRequest/full", one);
  ExpectGolden("IngestResponse/default", IngestResponse());
  IngestResponse seq;
  seq.seq = 123;
  ExpectGolden("IngestResponse/full", seq);

  ExpectGolden("IngestBatchRequest/default", IngestBatchRequest());
  IngestBatchRequest batch;
  batch.topic = "t";
  batch.texts = {"alpha", "", "gamma"};
  batch.timestamps_us = {10, 20, 30};
  ExpectGolden("IngestBatchRequest/full", batch);

  // The view request is wire-identical to the owning one.
  const std::vector<std::string_view> views(batch.texts.begin(),
                                            batch.texts.end());
  IngestBatchRequestView view;
  view.topic = batch.topic;
  view.texts = views;
  view.timestamps_us = batch.timestamps_us;
  ExpectBytes("IngestBatchRequest/full", Encode(view));
  ExpectGolden("IngestBatchRequestView/full", view);
  ExpectGolden("IngestBatchRequestView/default", IngestBatchRequestView());

  ExpectGolden("IngestBatchResponse/default", IngestBatchResponse());
  IngestBatchResponse seqs;
  seqs.seqs = {4, 5, 6};
  ExpectGolden("IngestBatchResponse/full", seqs);
}

// ---------------------------------------------------------------------
// Query / stats / training / anomalies
// ---------------------------------------------------------------------

TEST(ApiGoldenTest, QueryStatsTrainAnomalies) {
  ExpectGolden("QueryRequest/default", QueryRequest());
  QueryRequest query;
  query.topic = "events";
  query.saturation_threshold = 0.4;
  query.begin_seq = 5;
  query.end_seq = 500;
  query.max_groups = 10;
  query.cursor = "opaque";
  query.include_sequence_numbers = false;
  query.min_timestamp_us = 1000;
  query.max_timestamp_us = 2000;
  ExpectGolden("QueryRequest/full", query);

  ExpectGolden("QueryResponse/default", QueryResponse());
  QueryResponse page;
  page.groups = {FullGroup(1), FullGroup(2)};
  page.groups[1].sequence_numbers.clear();  // tag 5 omitted when empty
  page.next_cursor = "next";
  ExpectGolden("QueryResponse/full", page);

  ExpectGolden("GetStatsRequest/default", GetStatsRequest());
  GetStatsRequest stats_req;
  stats_req.topic = "events";
  ExpectGolden("GetStatsRequest/full", stats_req);
  ExpectGolden("GetStatsResponse/default", GetStatsResponse());
  GetStatsResponse stats;
  stats.stats = FullStats();
  stats.tenant.admitted_requests = 41;
  stats.tenant.denied_requests = 42;
  stats.tenant.admitted_bytes = 43;
  stats.tenant.denied_bytes = 44;
  stats.tenant.admitted_records = 45;
  stats.tenant.denied_records = 46;
  ExpectGolden("GetStatsResponse/full", stats);

  ExpectGolden("TrainNowRequest/default", TrainNowRequest());
  TrainNowRequest train;
  train.topic = "events";
  ExpectGolden("TrainNowRequest/full", train);
  ExpectGolden("TrainNowResponse/default", TrainNowResponse());

  ExpectGolden("DetectAnomaliesRequest/default", DetectAnomaliesRequest());
  DetectAnomaliesRequest detect;
  detect.topic = "events";
  detect.window1_begin = 1;
  detect.window1_end = 2;
  detect.window2_begin = 3;
  detect.window2_end = 4;
  detect.min_change_ratio = 3.5;
  ExpectGolden("DetectAnomaliesRequest/full", detect);
  ExpectGolden("DetectAnomaliesResponse/default", DetectAnomaliesResponse());
  DetectAnomaliesResponse anomalies;
  for (uint64_t i = 1; i <= 2; ++i) {
    TemplateAnomaly a;
    a.template_id = i;
    a.template_text = "disk * full";
    a.count_before = 10 * i;
    a.count_after = 100 * i;
    a.is_new = i == 2;
    a.change_ratio = 10.0 * static_cast<double>(i);
    anomalies.anomalies.push_back(a);
  }
  ExpectGolden("DetectAnomaliesResponse/full", anomalies);
}

// ---------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------

TEST(ApiGoldenTest, Replication) {
  ExpectGolden("ReplPullRequest/default", ReplPullRequest());
  ReplPullRequest pull;
  pull.topic = "acme/events";
  pull.segment_index = 3;
  pull.offset = 4096;
  pull.max_bytes = 65536;
  pull.model_generation = 7;
  pull.want_config = true;
  ExpectGolden("ReplPullRequest/full", pull);

  ExpectGolden("ReplPullResponse/default", ReplPullResponse());
  ReplPullResponse chunk;
  chunk.topics = {"acme/a", "acme/b"};
  chunk.segment_index = 3;
  chunk.offset = 4096;
  chunk.data = std::string("\x01\x02\x00frames", 9);
  chunk.segment_sealed = true;
  chunk.segment_records = 50;
  chunk.segment_checksum = 0xABCDEF;
  chunk.segment_data_len = 8192;
  chunk.source_records = 500;
  chunk.source_segments = 5;
  chunk.source_bytes = 81920;
  chunk.has_config = true;
  chunk.config = FullConfig();
  chunk.config.storage.directory.clear();
  chunk.has_model = true;
  chunk.model_blob = "model-bytes";
  chunk.model_generation = 8;
  ExpectGolden("ReplPullResponse/full", chunk);
  // has_config / has_model false: tags 13 and 15 are omitted even when
  // the struct carries a config or model.
  ReplPullResponse bare = chunk;
  bare.has_config = false;
  bare.config = TopicConfig();
  bare.has_model = false;
  bare.model_blob.clear();
  ExpectGolden("ReplPullResponse/no-config-no-model", bare);

  ExpectGolden("PromoteRequest/default", PromoteRequest());
  ExpectGolden("PromoteResponse/default", PromoteResponse());
  PromoteResponse promoted;
  promoted.sealed_topics = 3;
  ExpectGolden("PromoteResponse/full", promoted);
  ExpectGolden("DemoteRequest/default", DemoteRequest());
  ExpectGolden("DemoteResponse/default", DemoteResponse());
}

// ---------------------------------------------------------------------
// A real cursor, minted by a paged Dispatch Query
// ---------------------------------------------------------------------

std::string DispatchQuery(ServiceFrontend& frontend, const QueryRequest& query,
                          QueryResponse* page) {
  const std::string response =
      frontend.Dispatch(EncodeRequest(ApiMethod::kQuery, "acme", query));
  EXPECT_TRUE(DecodeResponse(response, page).ok());
  return response;
}

TEST(ApiGoldenTest, QueryCursorFromPagedDispatch) {
  ServiceFrontend frontend;
  CreateTopicRequest create;
  create.name = "events";
  create.config.initial_train_records = 50;
  create.config.train_interval_records = 1u << 30;
  create.config.train_volume_bytes = 1ull << 40;
  create.config.async_training = false;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  IngestBatchRequest batch;
  batch.topic = "events";
  for (int i = 0; i < 60; ++i) {
    batch.texts.push_back("Accepted password for user" + std::to_string(i % 5) +
                          " port " + std::to_string(40000 + i));
    batch.texts.push_back("Disk quota exceeded for volume vol" +
                          std::to_string(i % 3));
    batch.texts.push_back("FATAL lag on shard " + std::to_string(i % 4));
    batch.timestamps_us.insert(batch.timestamps_us.end(),
                               {1000u + i, 2000u + i, 3000u + i});
  }
  IngestBatchResponse ingested;
  ASSERT_TRUE(frontend.IngestBatch("acme", batch, &ingested).ok());

  QueryRequest query;
  query.topic = "events";
  query.max_groups = 1;
  query.include_sequence_numbers = false;
  query.min_timestamp_us = 1010;
  QueryResponse first;
  ExpectBytes("Dispatch/query-page1", DispatchQuery(frontend, query, &first));
  ASSERT_FALSE(first.next_cursor.empty());
  ExpectBytes("QueryCursor/page1", first.next_cursor);

  // Page 2 decodes the cursor and mints the next one.
  query.cursor = first.next_cursor;
  QueryResponse second;
  ExpectBytes("Dispatch/query-page2", DispatchQuery(frontend, query, &second));
  ASSERT_FALSE(second.next_cursor.empty());
  ExpectBytes("QueryCursor/page2", second.next_cursor);
}

// ---------------------------------------------------------------------
// Decode outcomes, by status code
// ---------------------------------------------------------------------

std::string Wire(const std::function<void(FieldWriter&)>& fill) {
  std::string out;
  FieldWriter w(&out);
  fill(w);
  return out;
}

std::string Versioned(uint32_t version, const std::string& fields) {
  std::string out;
  ByteWriter(&out).PutU32(version);
  return out + fields;
}

TEST(ApiGoldenTest, WrongScalarWidthIsCorruption) {
  const std::string u32_for_u64 = Wire([](FieldWriter& w) { w.PutU32(1, 7); });
  EXPECT_TRUE(IngestResponse().DecodeFrom(u32_for_u64).IsCorruption());
  const std::string u32_for_f64 = Wire([](FieldWriter& w) { w.PutU32(2, 1); });
  EXPECT_TRUE(QueryRequest().DecodeFrom(u32_for_f64).IsCorruption());
  const std::string u64_for_bool = Wire([](FieldWriter& w) { w.PutU64(2, 1); });
  EXPECT_TRUE(DeleteTopicRequest().DecodeFrom(u64_for_bool).IsCorruption());
  const std::string ragged = Wire([](FieldWriter& w) { w.PutBytes(3, "abc"); });
  EXPECT_TRUE(IngestBatchRequest().DecodeFrom(ragged).IsCorruption());
  const std::string u64_method = Wire([](FieldWriter& w) { w.PutU64(1, 1); });
  EXPECT_TRUE(
      RequestEnvelope().DecodeFrom(Versioned(2, u64_method)).IsCorruption());
  const std::string bad_shard = Wire([](FieldWriter& w) {
    const size_t body = w.Begin(22);
    w.PutU32(1, 1);
    w.End(body);
  });
  EXPECT_TRUE(GetStatsResponse().DecodeFrom(bad_shard).IsCorruption());
}

TEST(ApiGoldenTest, UnknownEnumValuesAreInvalidArgument) {
  TopicConfig config;
  const std::string kind = Wire([](FieldWriter& w) { w.PutU32(9, 2); });
  EXPECT_TRUE(DecodeTopicConfig(kind, &config).IsInvalidArgument());
  const std::string durability = Wire([](FieldWriter& w) { w.PutU32(14, 3); });
  EXPECT_TRUE(DecodeTopicConfig(durability, &config).IsInvalidArgument());
  const std::string nested = Wire([](FieldWriter& w) {
    const size_t body = w.Begin(2);
    w.PutU32(14, 3);
    w.End(body);
  });
  EXPECT_TRUE(CreateTopicRequest().DecodeFrom(nested).IsInvalidArgument());
}

TEST(ApiGoldenTest, UnknownWireStatusIsCorruption) {
  const std::string code = Wire([](FieldWriter& w) { w.PutU32(1, 99); });
  EXPECT_TRUE(
      ResponseEnvelope().DecodeFrom(Versioned(2, code)).IsCorruption());
}

TEST(ApiGoldenTest, VersionZeroAndShortHeader) {
  const std::string v0 =
      Versioned(0, Wire([](FieldWriter& w) { w.PutU32(1, 7); }));
  EXPECT_TRUE(RequestEnvelope().DecodeFrom(v0).IsInvalidArgument());
  EXPECT_TRUE(RequestEnvelopeView().DecodeFrom(v0).IsInvalidArgument());
  EXPECT_TRUE(ResponseEnvelope().DecodeFrom(v0).IsInvalidArgument());
  EXPECT_TRUE(RequestEnvelope().DecodeFrom("\x02\x00").IsCorruption());
  EXPECT_TRUE(RequestEnvelopeView().DecodeFrom("").IsCorruption());
  EXPECT_TRUE(ResponseEnvelope().DecodeFrom("\x02").IsCorruption());
}

TEST(ApiGoldenTest, TruncatedNestedConfigIsCorruption) {
  std::string config;
  EncodeTopicConfig(FullConfig(), &config);
  config.pop_back();
  const std::string create = Wire([&config](FieldWriter& w) {
    w.PutBytes(1, "events");
    w.PutBytes(2, config);
  });
  EXPECT_TRUE(CreateTopicRequest().DecodeFrom(create).IsCorruption());
  const std::string pull =
      Wire([&config](FieldWriter& w) { w.PutBytes(13, config); });
  EXPECT_TRUE(ReplPullResponse().DecodeFrom(pull).IsCorruption());
}

TEST(ApiGoldenTest, RepeatedScalarKeepsLastValue) {
  const std::string twice = Wire([](FieldWriter& w) {
    w.PutU64(1, 5);
    w.PutU64(1, 9);
  });
  IngestResponse seq;
  ASSERT_TRUE(seq.DecodeFrom(twice).ok());
  EXPECT_EQ(seq.seq, 9u);
}

TEST(ApiGoldenTest, GarbageCursorIsInvalidArgument) {
  ServiceFrontend frontend;
  CreateTopicRequest create;
  create.name = "events";
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  QueryRequest query;
  query.topic = "events";
  QueryResponse page;
  const std::string short_u64 = Wire([](FieldWriter& w) { w.PutU32(1, 5); });
  const std::string cut = Wire([](FieldWriter& w) { w.PutU64(4, 5); });
  const std::string cursors[] = {"garbage", std::string(3, '\0'), short_u64,
                                 cut.substr(0, 12)};
  for (const std::string& cursor : cursors) {
    query.cursor = cursor;
    EXPECT_TRUE(frontend.Query("acme", query, &page).IsInvalidArgument())
        << Hex(cursor);
  }
}

const std::map<std::string, std::string> kGolden = {
    {"CreateTopicRequest/default",
     "010000000000000002000000b000000001000000080000000000800000000000"
     "0200000008000000a0860100000000000300000008000000e803000000000000"
     "0400000008000000400d03000000000005000000040000000200000006000000"
     "0400000001000000070000000400000001000000080000000400000001000000"
     "0900000004000000000000000a000000000000000b0000000800000000008000"
     "000000000c0000000800000000000100000000000e0000000400000000000000"},
    {"CreateTopicRequest/full",
     "01000000060000006576656e7473020000000001000001000000080000005704"
     "0000000000000200000008000000ae080000000000000300000008000000050d"
     "00000000000004000000080000005c1100000000000005000000040000000300"
     "0000060000000400000004000000070000000400000000000000080000000400"
     "0000000000000900000004000000010000000a000000070000002f7661722f62"
     "620b00000008000000b3150000000000000c000000080000000a1a0000000000"
     "000d0000001e0000000100000003000000686578020000000b00000030785b30"
     "2d39612d665d2b0d0000001b0000000100000002000000696402000000090000"
     "0069642d5b302d395d2b0e0000000400000002000000"},
    {"CreateTopicResponse/default",
     ""},
    {"DeleteTopicRequest/default",
     "0100000000000000020000000400000001000000"},
    {"DeleteTopicRequest/full",
     "01000000060000006576656e7473020000000400000000000000"},
    {"DeleteTopicResponse/default",
     ""},
    {"DemoteRequest/default",
     ""},
    {"DemoteResponse/default",
     ""},
    {"DetectAnomaliesRequest/default",
     "0100000000000000020000000800000000000000000000000300000008000000"
     "0000000000000000040000000800000000000000000000000500000008000000"
     "000000000000000006000000080000000000000000000040"},
    {"DetectAnomaliesRequest/full",
     "01000000060000006576656e7473020000000800000001000000000000000300"
     "0000080000000200000000000000040000000800000003000000000000000500"
     "000008000000040000000000000006000000080000000000000000000c40"},
    {"DetectAnomaliesResponse/default",
     ""},
    {"DetectAnomaliesResponse/full",
     "010000005f00000001000000080000000100000000000000020000000b000000"
     "6469736b202a2066756c6c03000000080000000a000000000000000400000008"
     "0000006400000000000000050000000400000000000000060000000800000000"
     "00000000002440010000005f0000000100000008000000020000000000000002"
     "0000000b0000006469736b202a2066756c6c0300000008000000140000000000"
     "00000400000008000000c8000000000000000500000004000000010000000600"
     "0000080000000000000000003440"},
    {"Dispatch/query-page1",
     "0200000001000000040000000000000002000000000000000300000008000000"
     "0000000000000000040000000001000001000000580000000100000008000000"
     "030000000000000002000000200000004469736b2071756f7461206578636565"
     "64656420666f7220766f6c756d65202a0300000008000000000000000000f03f"
     "04000000080000003c0000000000000002000000980000000100000008000000"
     "00000000000000000200000008000000b4000000000000000300000008000000"
     "01000000000000000400000008000000333333333333e33f0500000004000000"
     "0000000006000000040000000100000007000000080000003c00000000000000"
     "080000000800000003000000000000000900000008000000f203000000000000"
     "0a00000008000000ffffffffffffffff"},
    {"Dispatch/query-page2",
     "0200000001000000040000000000000002000000000000000300000008000000"
     "000000000000000004000000f4000000010000004c0000000100000008000000"
     "09000000000000000200000014000000464154414c206c6167206f6e20736861"
     "7264202a0300000008000000000000000000f03f04000000080000003c000000"
     "0000000002000000980000000100000008000000000000000000000002000000"
     "08000000b4000000000000000300000008000000020000000000000004000000"
     "08000000333333333333e33f0500000004000000000000000600000004000000"
     "0100000007000000080000003c00000000000000080000000800000009000000"
     "000000000900000008000000f2030000000000000a00000008000000ffffffff"
     "ffffffff"},
    {"EncodeRequest/plain",
     "02000000010000000400000007000000020000000400000061636d6503000000"
     "5e00000001000000060000006576656e74730200000008000000333333333333"
     "e33f030000000800000000000000000000000400000008000000ffffffffffff"
     "ffff050000000400000002000000060000000000000007000000040000000100"
     "0000"},
    {"EncodeRequest/v2",
     "02000000010000000400000007000000020000000400000061636d6503000000"
     "5e00000001000000060000006576656e74730200000008000000333333333333"
     "e33f030000000800000000000000000000000400000008000000ffffffffffff"
     "ffff050000000400000002000000060000000000000007000000040000000100"
     "000004000000080000002a000000000000000500000005000000746f6b656e"},
    {"EncodeResponse/error",
     "02000000010000000400000008000000020000000500000071756f7461030000"
     "0008000000c40900000000000005000000080000000700000000000000"},
    {"EncodeResponse/ok",
     "0200000001000000040000000000000002000000000000000300000008000000"
     "0000000000000000040000002000000001000000180000000500000000000000"
     "0600000000000000070000000000000005000000080000006300000000000000"},
    {"GetStatsRequest/default",
     "0100000000000000"},
    {"GetStatsRequest/full",
     "01000000060000006576656e7473"},
    {"GetStatsResponse/default",
     "0100000008000000000000000000000002000000080000000000000000000000"
     "0300000008000000000000000000000004000000080000000000000000000000"
     "0500000008000000000000000000000006000000080000000000000000000000"
     "0700000008000000000000000000000008000000080000000000000000000000"
     "090000000800000000000000000000000a000000080000000000000000000000"
     "0b0000000800000000000000000000000c000000080000000000000000000000"
     "0d0000000800000000000000000000000e000000080000000000000000000000"
     "0f00000004000000000000001000000004000000010000001100000008000000"
     "0000000000000000120000000800000000000000000000001300000008000000"
     "0000000000000000140000000800000000000000000000001500000008000000"
     "0000000000000000170000000800000000000000000000001800000008000000"
     "0000000000000000190000000800000000000000000000001a00000008000000"
     "00000000000000001b0000006000000001000000080000000000000000000000"
     "0200000008000000000000000000000003000000080000000000000000000000"
     "0400000008000000000000000000000005000000080000000000000000000000"
     "060000000800000000000000000000001c000000080000000000000000000000"
     "1d0000000800000000000000000000001e000000080000000000000000000000"
     "1f00000008000000000000000000000020000000080000000000000000000000"
     "2100000008000000000000000000000022000000080000000000000000000000"
     "2300000008000000000000000000000024000000040000000000000025000000"
     "0400000000000000"},
    {"GetStatsResponse/full",
     "0100000008000000010000000000000002000000080000000200000000000000"
     "0300000008000000030000000000000004000000080000000400000000000000"
     "0500000008000000050000000000000006000000080000000600000000000000"
     "07000000080000000000000000001e4008000000080000000900000000000000"
     "09000000080000000a000000000000000a000000080000000b00000000000000"
     "0b000000080000000c000000000000000c000000080000000d00000000000000"
     "0d000000080000000000000000802c400e000000080000000f00000000000000"
     "0f00000004000000010000001000000004000000000000001100000008000000"
     "1000000000000000120000000800000011000000000000001300000008000000"
     "1200000000000000140000000800000013000000000000001500000008000000"
     "1400000000000000160000007000000001000000080000006500000000000000"
     "0200000008000000660000000000000003000000080000006700000000000000"
     "0400000008000000680000000000000005000000080000006900000000000000"
     "06000000080000006a0000000000000007000000080000006b00000000000000"
     "16000000700000000100000008000000c9000000000000000200000008000000"
     "ca000000000000000300000008000000cb000000000000000400000008000000"
     "cc000000000000000500000008000000cd000000000000000600000008000000"
     "ce000000000000000700000008000000cf000000000000001600000070000000"
     "01000000080000002d0100000000000002000000080000002e01000000000000"
     "03000000080000002f0100000000000004000000080000003001000000000000"
     "0500000008000000310100000000000006000000080000003201000000000000"
     "0700000008000000330100000000000017000000080000001500000000000000"
     "1800000008000000160000000000000019000000080000001700000000000000"
     "1a0000000800000018000000000000001b000000600000000100000008000000"
     "290000000000000002000000080000002a000000000000000300000008000000"
     "2b0000000000000004000000080000002c000000000000000500000008000000"
     "2d0000000000000006000000080000002e000000000000001c00000008000000"
     "19000000000000001d000000080000001a000000000000001e00000008000000"
     "1b000000000000001f000000080000001c000000000000002000000008000000"
     "1d0000000000000021000000080000001e000000000000002200000008000000"
     "1f00000000000000230000000800000020000000000000002400000004000000"
     "01000000250000000400000008000000"},
    {"IngestBatchRequest/default",
     "0100000000000000"},
    {"IngestBatchRequest/full",
     "0100000001000000740200000005000000616c70686102000000000000000200"
     "00000500000067616d6d6103000000180000000a000000000000001400000000"
     "0000001e00000000000000"},
    {"IngestBatchRequestView/default",
     "0100000000000000"},
    {"IngestBatchRequestView/full",
     "0100000001000000740200000005000000616c70686102000000000000000200"
     "00000500000067616d6d6103000000180000000a000000000000001400000000"
     "0000001e00000000000000"},
    {"IngestBatchResponse/default",
     "0100000000000000"},
    {"IngestBatchResponse/full",
     "0100000018000000040000000000000005000000000000000600000000000000"},
    {"IngestRequest/default",
     "0100000000000000020000000000000003000000080000000000000000000000"},
    {"IngestRequest/full",
     "010000000100000074020000000b00000068656c6c6f20776f726c6403000000"
     "0800000000401e18240a0600"},
    {"IngestResponse/default",
     "01000000080000000000000000000000"},
    {"IngestResponse/full",
     "01000000080000007b00000000000000"},
    {"ListTopicsRequest/default",
     ""},
    {"ListTopicsResponse/default",
     ""},
    {"ListTopicsResponse/full",
     "0100000005000000616c70686101000000040000006265746101000000000000"
     "00"},
    {"PromoteRequest/default",
     ""},
    {"PromoteResponse/default",
     "01000000080000000000000000000000"},
    {"PromoteResponse/full",
     "01000000080000000300000000000000"},
    {"QueryCursor/page1",
     "010000000800000000000000000000000200000008000000b400000000000000"
     "030000000800000001000000000000000400000008000000333333333333e33f"
     "0500000004000000000000000600000004000000010000000700000008000000"
     "3c00000000000000080000000800000003000000000000000900000008000000"
     "f2030000000000000a00000008000000ffffffffffffffff"},
    {"QueryCursor/page2",
     "010000000800000000000000000000000200000008000000b400000000000000"
     "030000000800000002000000000000000400000008000000333333333333e33f"
     "0500000004000000000000000600000004000000010000000700000008000000"
     "3c00000000000000080000000800000009000000000000000900000008000000"
     "f2030000000000000a00000008000000ffffffffffffffff"},
    {"QueryRequest/default",
     "01000000000000000200000008000000333333333333e33f0300000008000000"
     "00000000000000000400000008000000ffffffffffffffff0500000004000000"
     "000000000600000000000000070000000400000001000000"},
    {"QueryRequest/full",
     "01000000060000006576656e747302000000080000009a9999999999d93f0300"
     "00000800000005000000000000000400000008000000f4010000000000000500"
     "0000040000000a00000006000000060000006f70617175650700000004000000"
     "000000000800000008000000e8030000000000000900000008000000d0070000"
     "00000000"},
    {"QueryResponse/default",
     "0200000000000000"},
    {"QueryResponse/full",
     "010000006f000000010000000800000001000000000000000200000017000000"
     "75736572202a206c6f6767656420696e2066726f6d202a030000000800000000"
     "0000000000e83f04000000080000000300000000000000050000001800000001"
     "000000000000000b000000000000001500000000000000010000004f00000001"
     "000000080000000200000000000000020000001700000075736572202a206c6f"
     "6767656420696e2066726f6d202a0300000008000000000000000000e83f0400"
     "000008000000060000000000000002000000040000006e657874"},
    {"ReplPullRequest/default",
     "0100000000000000020000000800000000000000000000000300000008000000"
     "0000000000000000040000000800000000001000000000000500000008000000"
     "ffffffffffffffff060000000400000000000000"},
    {"ReplPullRequest/full",
     "010000000b00000061636d652f6576656e747302000000080000000300000000"
     "0000000300000008000000001000000000000004000000080000000000010000"
     "00000005000000080000000700000000000000060000000400000001000000"},
    {"ReplPullResponse/default",
     "0200000008000000000000000000000003000000080000000000000000000000"
     "0400000000000000050000000400000000000000060000000800000000000000"
     "0000000007000000080000000000000000000000080000000800000000000000"
     "00000000090000000800000000000000000000000a0000000800000000000000"
     "000000000b0000000800000000000000000000000c0000000400000000000000"
     "0e000000040000000000000010000000080000000000000000000000"},
    {"ReplPullResponse/full",
     "010000000600000061636d652f61010000000600000061636d652f6202000000"
     "0800000003000000000000000300000008000000001000000000000004000000"
     "0900000001020f72616d65730005000000040000000100000006000000080000"
     "0032000000000000000700000008000000efcdab000000000008000000080000"
     "0000200000000000000900000008000000f4010000000000000a000000080000"
     "0005000000000000000b0000000800000000400100000000000c000000040000"
     "00010000000d000000f900000001000000080000005704000000000000020000"
     "0008000000ae080000000000000300000008000000050d000000000000040000"
     "00080000005c1100000000000005000000040000000300000006000000040000"
     "0004000000070000000400000000000000080000000400000000000000090000"
     "0004000000010000000a000000000000000b00000008000000b3150000000000"
     "000c000000080000000a1a0000000000000d0000001e00000001000000030000"
     "00686578020000000b00000030785b302d39612d665d2b0d0000001b00000001"
     "000000020000006964020000000900000069642d5b302d395d2b0e0000000400"
     "0000020000000e00000004000000010000000f0000000b0000006d6f64656c2d"
     "627974657310000000080000000800000000000000"},
    {"ReplPullResponse/no-config-no-model",
     "010000000600000061636d652f61010000000600000061636d652f6202000000"
     "0800000003000000000000000300000008000000001000000000000004000000"
     "0900000001020f72616d65730005000000040000000100000006000000080000"
     "0032000000000000000700000008000000efcdab000000000008000000080000"
     "0000200000000000000900000008000000f4010000000000000a000000080000"
     "0005000000000000000b0000000800000000400100000000000c000000040000"
     "00000000000e0000000400000000000000100000000800000008000000000000"
     "00"},
    {"RequestEnvelope/default",
     "0200000001000000040000000000000002000000000000000300000000000000"},
    {"RequestEnvelope/v1",
     "01000000010000000400000006000000020000000400000061636d6503000000"
     "0a000000626f6479006279746573"},
    {"RequestEnvelope/v2",
     "02000000010000000400000006000000020000000400000061636d6503000000"
     "0a000000626f6479006279746573040000000800000008070605040302010500"
     "000006000000733363726574"},
    {"ResponseEnvelope/default",
     "0200000001000000040000000000000002000000000000000300000008000000"
     "00000000000000000400000000000000"},
    {"ResponseEnvelope/error",
     "020000000100000004000000080000000200000009000000736c6f7720646f77"
     "6e030000000800000039300000000000000400000000000000"},
    {"ResponseEnvelope/full",
     "0200000001000000040000000000000002000000000000000300000008000000"
     "090000000000000004000000070000007061796c6f616405000000080000004d"
     "00000000000000"},
    {"TopicConfig/default",
     "010000000800000000008000000000000200000008000000a086010000000000"
     "0300000008000000e8030000000000000400000008000000400d030000000000"
     "0500000004000000020000000600000004000000010000000700000004000000"
     "010000000800000004000000010000000900000004000000000000000a000000"
     "000000000b0000000800000000008000000000000c0000000800000000000100"
     "000000000e0000000400000000000000"},
    {"TopicConfig/full",
     "010000000800000057040000000000000200000008000000ae08000000000000"
     "0300000008000000050d00000000000004000000080000005c11000000000000"
     "0500000004000000030000000600000004000000040000000700000004000000"
     "000000000800000004000000000000000900000004000000010000000a000000"
     "070000002f7661722f62620b00000008000000b3150000000000000c00000008"
     "0000000a1a0000000000000d0000001e00000001000000030000006865780200"
     "00000b00000030785b302d39612d665d2b0d0000001b00000001000000020000"
     "006964020000000900000069642d5b302d395d2b0e0000000400000002000000"},
    {"TopicConfigPatch/default",
     ""},
    {"TopicConfigPatch/full",
     "01000000080000000b0000000000000002000000080000001600000000000000"
     "0300000008000000210000000000000004000000080000002c00000000000000"
     "0500000004000000050000000600000004000000060000000700000004000000"
     "00000000"},
    {"TrainNowRequest/default",
     "0100000000000000"},
    {"TrainNowRequest/full",
     "01000000060000006576656e7473"},
    {"TrainNowResponse/default",
     ""},
    {"UpdateTopicConfigRequest/default",
     "01000000000000000200000000000000"},
    {"UpdateTopicConfigRequest/full",
     "01000000060000006576656e7473020000006400000001000000080000000b00"
     "0000000000000200000008000000160000000000000003000000080000002100"
     "00000000000004000000080000002c0000000000000005000000040000000500"
     "0000060000000400000006000000070000000400000000000000"},
    {"UpdateTopicConfigResponse/default",
     ""},
};

}  // namespace
}  // namespace api
}  // namespace bytebrain
