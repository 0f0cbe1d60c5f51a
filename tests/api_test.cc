// Service-API battery: wire round-trips for every message, decode
// robustness under truncation and seeded corruption (a decode NEVER
// crashes), forward-compatible unknown-field skipping, and the
// ServiceFrontend contract — lifecycle end-to-end, tenant isolation,
// admission control (topic quota, token buckets with a fake clock,
// in-flight batch cap), cursor pagination equivalence, live config
// updates, and TSAN-clean concurrent use.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/frontend.h"
#include "api/messages.h"
#include "util/serde.h"
#include "service/log_service.h"

namespace bytebrain {
namespace api {
namespace {

class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_api_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string SshLog(int i) {
  return "Accepted password for user" + std::to_string(i % 5) +
         " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
         std::to_string(40000 + i) + " ssh2";
}

std::string DiskLog(int i) {
  return "Disk quota exceeded for volume vol" + std::to_string(i % 3);
}

TopicConfig SmallConfig() {
  TopicConfig config;
  config.initial_train_records = 50;
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 1ull << 40;
  config.num_threads = 2;
  config.async_training = false;
  return config;
}

template <typename Msg>
std::string Encode(const Msg& msg) {
  std::string bytes;
  msg.EncodeTo(&bytes);
  return bytes;
}

// ---------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, EnvelopeRoundTrip) {
  RequestEnvelope req;
  req.method = ApiMethod::kIngestBatch;
  req.tenant = "acme";
  req.payload = "opaque-bytes\0with-nul";
  RequestEnvelope req2;
  ASSERT_TRUE(req2.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(req2.api_version, kApiVersion);
  EXPECT_EQ(req2.method, ApiMethod::kIngestBatch);
  EXPECT_EQ(req2.tenant, "acme");
  EXPECT_EQ(req2.payload, req.payload);

  ResponseEnvelope resp;
  resp.status = Status::ResourceExhausted("slow down");
  resp.retry_after_us = 12345;
  resp.payload = "partial";
  ResponseEnvelope resp2;
  ASSERT_TRUE(resp2.DecodeFrom(Encode(resp)).ok());
  EXPECT_TRUE(resp2.status.IsResourceExhausted());
  EXPECT_EQ(resp2.status.message(), "slow down");
  EXPECT_EQ(resp2.retry_after_us, 12345u);
  EXPECT_EQ(resp2.payload, "partial");
}

TEST(ApiMessagesTest, AllStatusCodesCrossTheWire) {
  const Status statuses[] = {
      Status::OK(),
      Status::InvalidArgument("a"),
      Status::NotFound("b"),
      Status::Corruption("c"),
      Status::IOError("d"),
      Status::NotSupported("e"),
      Status::Aborted("f"),
      Status::AlreadyExists("g"),
      Status::ResourceExhausted("h"),
      Status::PermissionDenied("i"),
  };
  for (const Status& s : statuses) {
    ResponseEnvelope env;
    env.status = s;
    ResponseEnvelope decoded;
    ASSERT_TRUE(decoded.DecodeFrom(Encode(env)).ok());
    EXPECT_EQ(decoded.status.code(), s.code());
    EXPECT_EQ(decoded.status.message(), s.message());
  }
  // An unknown code is framing corruption, not a guess.
  EXPECT_TRUE(StatusFromWire(250, "x").IsCorruption());
}

TEST(ApiMessagesTest, CreateTopicRoundTripCarriesConfig) {
  CreateTopicRequest req;
  req.name = "events";
  req.config.train_volume_bytes = 111;
  req.config.train_interval_records = 222;
  req.config.initial_train_records = 333;
  req.config.max_train_records = 444;
  req.config.num_threads = 5;
  req.config.num_ingest_shards = 6;
  req.config.async_training = false;
  req.config.sync_initial_training = false;
  req.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  req.config.storage.directory = "/tmp/x";
  req.config.storage.segment_data_bytes = 777;
  req.config.storage.memory_segment_capacity = 888;
  req.config.durability = DurabilityMode::kWalGroupCommit;
  req.config.variable_rules = {{"hex", "0x[0-9a-f]+"}, {"num", "[0-9]+"}};

  CreateTopicRequest got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.name, "events");
  EXPECT_EQ(got.config.train_volume_bytes, 111u);
  EXPECT_EQ(got.config.train_interval_records, 222u);
  EXPECT_EQ(got.config.initial_train_records, 333u);
  EXPECT_EQ(got.config.max_train_records, 444u);
  EXPECT_EQ(got.config.num_threads, 5);
  EXPECT_EQ(got.config.num_ingest_shards, 6);
  EXPECT_FALSE(got.config.async_training);
  EXPECT_FALSE(got.config.sync_initial_training);
  EXPECT_EQ(got.config.storage.kind, StorageConfig::Kind::kSegmentedDisk);
  EXPECT_EQ(got.config.storage.directory, "/tmp/x");
  EXPECT_EQ(got.config.storage.segment_data_bytes, 777u);
  EXPECT_EQ(got.config.storage.memory_segment_capacity, 888u);
  EXPECT_EQ(got.config.durability, DurabilityMode::kWalGroupCommit);
  EXPECT_EQ(got.config.variable_rules, req.config.variable_rules);
}

TEST(ApiMessagesTest, UnknownDurabilityModeIsRejected) {
  TopicConfig config;
  config.durability = static_cast<DurabilityMode>(9);
  std::string bytes;
  EncodeTopicConfig(config, &bytes);
  TopicConfig got;
  const Status decoded = DecodeTopicConfig(bytes, &got);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.IsInvalidArgument());
}

TEST(ApiMessagesTest, PatchRoundTripPreservesAbsence) {
  UpdateTopicConfigRequest req;
  req.name = "t";
  req.patch.train_interval_records = 1000;
  req.patch.num_ingest_shards = 4;
  UpdateTopicConfigRequest got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.name, "t");
  ASSERT_TRUE(got.patch.train_interval_records.has_value());
  EXPECT_EQ(*got.patch.train_interval_records, 1000u);
  ASSERT_TRUE(got.patch.num_ingest_shards.has_value());
  EXPECT_EQ(*got.patch.num_ingest_shards, 4);
  EXPECT_FALSE(got.patch.train_volume_bytes.has_value());
  EXPECT_FALSE(got.patch.num_threads.has_value());
  EXPECT_FALSE(got.patch.async_training.has_value());
}

TEST(ApiMessagesTest, IngestAndBatchRoundTrip) {
  IngestRequest one;
  one.topic = "t";
  one.text = "hello world 42";
  one.timestamp_us = 99;
  IngestRequest one2;
  ASSERT_TRUE(one2.DecodeFrom(Encode(one)).ok());
  EXPECT_EQ(one2.topic, "t");
  EXPECT_EQ(one2.text, one.text);
  EXPECT_EQ(one2.timestamp_us, 99u);

  IngestBatchRequest batch;
  batch.topic = "t";
  batch.texts = {"a", "", "long line with spaces", std::string(3000, 'x')};
  batch.timestamps_us = {1, 2, 3, 4};
  IngestBatchRequest batch2;
  ASSERT_TRUE(batch2.DecodeFrom(Encode(batch)).ok());
  EXPECT_EQ(batch2.topic, "t");
  EXPECT_EQ(batch2.texts, batch.texts);
  EXPECT_EQ(batch2.timestamps_us, batch.timestamps_us);

  IngestResponse r1;
  r1.seq = 7;
  IngestResponse r2;
  ASSERT_TRUE(r2.DecodeFrom(Encode(r1)).ok());
  EXPECT_EQ(r2.seq, 7u);

  IngestBatchResponse b1;
  b1.seqs = {5, 6, 7, 8};
  IngestBatchResponse b2;
  ASSERT_TRUE(b2.DecodeFrom(Encode(b1)).ok());
  EXPECT_EQ(b2.seqs, b1.seqs);
}

TEST(ApiMessagesTest, QueryAndStatsAndAnomalyRoundTrip) {
  QueryRequest q;
  q.topic = "t";
  q.saturation_threshold = 0.75;
  q.begin_seq = 10;
  q.end_seq = 90;
  q.max_groups = 3;
  q.cursor = "cursor-bytes";
  q.include_sequence_numbers = false;
  QueryRequest q2;
  ASSERT_TRUE(q2.DecodeFrom(Encode(q)).ok());
  EXPECT_EQ(q2.topic, "t");
  EXPECT_DOUBLE_EQ(q2.saturation_threshold, 0.75);
  EXPECT_EQ(q2.begin_seq, 10u);
  EXPECT_EQ(q2.end_seq, 90u);
  EXPECT_EQ(q2.max_groups, 3u);
  EXPECT_EQ(q2.cursor, "cursor-bytes");
  EXPECT_FALSE(q2.include_sequence_numbers);

  QueryResponse qr;
  TemplateGroup g;
  g.template_id = 12;
  g.template_text = "Accepted password for * from *";
  g.saturation = 0.9;
  g.count = 3;
  g.sequence_numbers = {1, 4, 9};
  qr.groups.push_back(g);
  g.template_id = 13;
  g.sequence_numbers.clear();
  qr.groups.push_back(g);
  qr.next_cursor = "more";
  QueryResponse qr2;
  ASSERT_TRUE(qr2.DecodeFrom(Encode(qr)).ok());
  ASSERT_EQ(qr2.groups.size(), 2u);
  EXPECT_EQ(qr2.groups[0].template_id, 12u);
  EXPECT_EQ(qr2.groups[0].template_text, g.template_text);
  EXPECT_DOUBLE_EQ(qr2.groups[0].saturation, 0.9);
  EXPECT_EQ(qr2.groups[0].count, 3u);
  EXPECT_EQ(qr2.groups[0].sequence_numbers, (std::vector<uint64_t>{1, 4, 9}));
  EXPECT_TRUE(qr2.groups[1].sequence_numbers.empty());
  EXPECT_EQ(qr2.next_cursor, "more");

  GetStatsResponse s;
  s.stats.ingested_records = 1;
  s.stats.ingested_bytes = 2;
  s.stats.trainings = 3;
  s.stats.num_templates = 4;
  s.stats.last_training_seconds = 0.5;
  s.stats.storage_persistent = true;
  s.stats.storage_ok = false;
  s.stats.shards.resize(2);
  s.stats.shards[1].records = 42;
  s.stats.shards[1].memo_hits = 7;
  s.stats.wal_bytes = 4096;
  s.stats.wal_group_commits = 10;
  s.stats.wal_fsyncs = 3;
  s.stats.wal_replayed_records = 5;
  s.tenant.admitted_requests = 100;
  s.tenant.denied_requests = 4;
  s.tenant.admitted_bytes = 5000;
  s.tenant.denied_bytes = 200;
  s.tenant.admitted_records = 120;
  s.tenant.denied_records = 6;
  s.stats.storage_cache_hits = 31;
  s.stats.storage_cache_misses = 32;
  s.stats.storage_cache_evictions = 33;
  s.stats.storage_index_rebuilds = 34;
  s.stats.storage_scan_record_visits = 35;
  s.stats.last_training_threads = 4;
  GetStatsResponse s2;
  ASSERT_TRUE(s2.DecodeFrom(Encode(s)).ok());
  EXPECT_EQ(s2.stats.ingested_records, 1u);
  EXPECT_EQ(s2.stats.num_templates, 4u);
  EXPECT_DOUBLE_EQ(s2.stats.last_training_seconds, 0.5);
  EXPECT_TRUE(s2.stats.storage_persistent);
  EXPECT_FALSE(s2.stats.storage_ok);
  ASSERT_EQ(s2.stats.shards.size(), 2u);
  EXPECT_EQ(s2.stats.shards[1].records, 42u);
  EXPECT_EQ(s2.stats.shards[1].memo_hits, 7u);
  EXPECT_EQ(s2.stats.wal_bytes, 4096u);
  EXPECT_EQ(s2.stats.wal_group_commits, 10u);
  EXPECT_EQ(s2.stats.wal_fsyncs, 3u);
  EXPECT_EQ(s2.stats.wal_replayed_records, 5u);
  EXPECT_EQ(s2.tenant.admitted_requests, 100u);
  EXPECT_EQ(s2.tenant.denied_requests, 4u);
  EXPECT_EQ(s2.tenant.admitted_bytes, 5000u);
  EXPECT_EQ(s2.tenant.denied_bytes, 200u);
  EXPECT_EQ(s2.tenant.admitted_records, 120u);
  EXPECT_EQ(s2.tenant.denied_records, 6u);
  EXPECT_EQ(s2.stats.storage_cache_hits, 31u);
  EXPECT_EQ(s2.stats.storage_cache_misses, 32u);
  EXPECT_EQ(s2.stats.storage_cache_evictions, 33u);
  EXPECT_EQ(s2.stats.storage_index_rebuilds, 34u);
  EXPECT_EQ(s2.stats.storage_scan_record_visits, 35u);
  EXPECT_EQ(s2.stats.last_training_threads, 4u);

  DetectAnomaliesRequest ar;
  ar.topic = "t";
  ar.window1_begin = 1;
  ar.window1_end = 2;
  ar.window2_begin = 3;
  ar.window2_end = 4;
  ar.min_change_ratio = 2.5;
  DetectAnomaliesRequest ar2;
  ASSERT_TRUE(ar2.DecodeFrom(Encode(ar)).ok());
  EXPECT_EQ(ar2.window2_end, 4u);
  EXPECT_DOUBLE_EQ(ar2.min_change_ratio, 2.5);

  DetectAnomaliesResponse an;
  TemplateAnomaly a;
  a.template_id = 9;
  a.template_text = "FATAL *";
  a.count_before = 0;
  a.count_after = 60;
  a.is_new = true;
  a.change_ratio = 60.0;
  an.anomalies.push_back(a);
  DetectAnomaliesResponse an2;
  ASSERT_TRUE(an2.DecodeFrom(Encode(an)).ok());
  ASSERT_EQ(an2.anomalies.size(), 1u);
  EXPECT_EQ(an2.anomalies[0].template_id, 9u);
  EXPECT_TRUE(an2.anomalies[0].is_new);
  EXPECT_DOUBLE_EQ(an2.anomalies[0].change_ratio, 60.0);
}

TEST(ApiMessagesTest, ListAndSimpleMessagesRoundTrip) {
  ListTopicsResponse l;
  l.names = {"a", "b", "c"};
  ListTopicsResponse l2;
  ASSERT_TRUE(l2.DecodeFrom(Encode(l)).ok());
  EXPECT_EQ(l2.names, l.names);

  DeleteTopicRequest d;
  d.name = "t";
  d.purge_storage = false;
  DeleteTopicRequest d2;
  ASSERT_TRUE(d2.DecodeFrom(Encode(d)).ok());
  EXPECT_EQ(d2.name, "t");
  EXPECT_FALSE(d2.purge_storage);

  GetStatsRequest g;
  g.topic = "t";
  GetStatsRequest g2;
  ASSERT_TRUE(g2.DecodeFrom(Encode(g)).ok());
  EXPECT_EQ(g2.topic, "t");

  TrainNowRequest t;
  t.topic = "t";
  TrainNowRequest t2;
  ASSERT_TRUE(t2.DecodeFrom(Encode(t)).ok());
  EXPECT_EQ(t2.topic, "t");

  // Empty messages decode from empty payloads.
  CreateTopicResponse cr;
  EXPECT_TRUE(cr.DecodeFrom("").ok());
  ListTopicsRequest lr;
  EXPECT_TRUE(lr.DecodeFrom("").ok());
  TrainNowResponse tr;
  EXPECT_TRUE(tr.DecodeFrom("").ok());
}

// ---------------------------------------------------------------------
// Versioning + decode robustness
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, UnknownFieldsAreSkipped) {
  IngestRequest req;
  req.topic = "t";
  req.text = "body";
  std::string bytes = Encode(req);
  // A future encoder appends a field this decoder has never heard of.
  FieldWriter w(&bytes);
  w.PutBytes(999, "from-the-future");
  w.PutU64(1000, 42);
  IngestRequest got;
  ASSERT_TRUE(got.DecodeFrom(bytes).ok());
  EXPECT_EQ(got.topic, "t");
  EXPECT_EQ(got.text, "body");
}

TEST(ApiMessagesTest, HigherVersionEnvelopeStillDecodes) {
  RequestEnvelope req;
  req.api_version = kApiVersion + 5;
  req.method = ApiMethod::kListTopics;
  req.tenant = "acme";
  RequestEnvelope got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.api_version, kApiVersion + 5);
  EXPECT_EQ(got.method, ApiMethod::kListTopics);
}

TEST(ApiMessagesTest, VersionZeroIsRejected) {
  RequestEnvelope req;
  req.api_version = 0;
  RequestEnvelope got;
  EXPECT_TRUE(got.DecodeFrom(Encode(req)).IsInvalidArgument());
  ResponseEnvelope resp;
  resp.api_version = 0;
  ResponseEnvelope got2;
  EXPECT_TRUE(got2.DecodeFrom(Encode(resp)).IsInvalidArgument());
}

// Property-style robustness: every prefix truncation and a seeded fuzz
// of byte flips must return a Status — never crash, never read out of
// bounds. Success is allowed (some mutations are benign); the property
// is "decoding terminates with a verdict".
template <typename Msg>
void ExpectRobustDecoding(const std::string& bytes) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    Msg victim;
    (void)victim.DecodeFrom(std::string_view(bytes.data(), len));
  }
  std::mt19937_64 rng(0xB0B5EED);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(rng() & 0xFF);
    Msg victim;
    (void)victim.DecodeFrom(mutated);
  }
}

TEST(ApiMessagesTest, TruncatedAndCorruptedBytesNeverCrash) {
  CreateTopicRequest create;
  create.name = "events";
  create.config.variable_rules = {{"hex", "0x[0-9a-f]+"}};
  ExpectRobustDecoding<CreateTopicRequest>(Encode(create));

  IngestBatchRequest batch;
  batch.topic = "t";
  batch.texts = {"alpha", "beta", "gamma"};
  batch.timestamps_us = {1, 2, 3};
  ExpectRobustDecoding<IngestBatchRequest>(Encode(batch));

  QueryResponse qr;
  TemplateGroup g;
  g.template_id = 1;
  g.template_text = "tpl";
  g.count = 2;
  g.sequence_numbers = {0, 1};
  qr.groups.push_back(g);
  qr.next_cursor = "c";
  ExpectRobustDecoding<QueryResponse>(Encode(qr));

  GetStatsResponse stats;
  stats.stats.shards.resize(3);
  ExpectRobustDecoding<GetStatsResponse>(Encode(stats));

  RequestEnvelope env;
  env.method = ApiMethod::kQuery;
  env.tenant = "acme";
  env.payload = Encode(qr);
  ExpectRobustDecoding<RequestEnvelope>(Encode(env));

  ResponseEnvelope resp;
  resp.status = Status::NotFound("x");
  resp.payload = Encode(qr);
  ExpectRobustDecoding<ResponseEnvelope>(Encode(resp));

  // A truncation that cuts a field is an ERROR, not a silent success:
  // check one representative (the full-message cases above only assert
  // no-crash).
  const std::string bytes = Encode(batch);
  IngestBatchRequest got;
  EXPECT_FALSE(got.DecodeFrom(bytes.substr(0, bytes.size() - 1)).ok());
}

template <typename... Msgs>
void ExpectAllRobust(const std::string& suffix, const Msgs&... msgs) {
  (ExpectRobustDecoding<Msgs>(Encode(msgs) + suffix), ...);
}

// The same property for EVERY decoder: one populated sample per message
// type (repeated fields with several entries, nested messages filled),
// each followed by an unknown field so empty messages have bytes to
// mangle too.
TEST(ApiMessagesTest, EveryDecoderSurvivesTruncationAndCorruption) {
  TopicConfig config;
  config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  config.storage.directory = "/data/t";
  config.variable_rules = {{"hex", "0x[0-9a-f]+"}, {"id", "id-[0-9]+"}};
  config.durability = DurabilityMode::kWalAsync;
  TopicConfigPatch patch;
  patch.max_train_records = 9;
  patch.num_threads = 3;
  patch.async_training = false;
  TemplateGroup group;
  group.template_id = 4;
  group.template_text = "a * b";
  group.count = 2;
  group.sequence_numbers = {7, 8};
  TemplateAnomaly anomaly;
  anomaly.template_id = 5;
  anomaly.template_text = "c *";
  anomaly.is_new = true;

  RequestEnvelope request_env;
  request_env.method = ApiMethod::kQuery;
  request_env.tenant = "acme";
  request_env.payload = "body";
  request_env.request_id = 17;
  request_env.auth_token = "token";
  ResponseEnvelope response_env;
  response_env.status = Status::NotFound("gone");
  response_env.retry_after_us = 3;
  response_env.payload = "body";
  response_env.request_id = 17;
  CreateTopicRequest create;
  create.name = "events";
  create.config = config;
  UpdateTopicConfigRequest update;
  update.name = "events";
  update.patch = patch;
  DeleteTopicRequest drop;
  drop.name = "events";
  drop.purge_storage = false;
  ListTopicsResponse list;
  list.names = {"a", "b"};
  IngestRequest ingest;
  ingest.topic = "events";
  ingest.text = "hello";
  ingest.timestamp_us = 6;
  IngestResponse ingested;
  ingested.seq = 11;
  IngestBatchRequest batch;
  batch.topic = "events";
  batch.texts = {"x", "yy", "zzz"};
  batch.timestamps_us = {1, 2, 3};
  IngestBatchResponse acked;
  acked.seqs = {4, 5, 6};
  QueryRequest query;
  query.topic = "events";
  query.cursor = "cursor";
  query.min_timestamp_us = 10;
  query.max_timestamp_us = 20;
  QueryResponse page;
  page.groups = {group, group};
  page.next_cursor = "next";
  GetStatsRequest stats_req;
  stats_req.topic = "events";
  GetStatsResponse stats;
  stats.stats.ingested_records = 12;
  stats.stats.shards.resize(2);
  stats.tenant.denied_records = 13;
  TrainNowRequest train;
  train.topic = "events";
  DetectAnomaliesRequest detect;
  detect.topic = "events";
  detect.window2_end = 14;
  DetectAnomaliesResponse anomalies;
  anomalies.anomalies = {anomaly, anomaly};
  ReplPullRequest pull;
  pull.topic = "acme/events";
  pull.want_config = true;
  ReplPullResponse chunk;
  chunk.topics = {"acme/a", "acme/b"};
  chunk.data = "frames";
  chunk.has_config = true;
  chunk.config = config;
  chunk.has_model = true;
  chunk.model_blob = "model";
  PromoteResponse promoted;
  promoted.sealed_topics = 2;

  std::string unknown;
  FieldWriter(&unknown).PutBytes(999, "future");
  ExpectAllRobust(unknown, request_env, response_env, create,
                  CreateTopicResponse(), update, UpdateTopicConfigResponse(),
                  drop, DeleteTopicResponse(), ListTopicsRequest(), list,
                  ingest, ingested, batch, acked, query, page, stats_req,
                  stats, train, TrainNowResponse(), detect, anomalies, pull,
                  chunk, PromoteRequest(), promoted, DemoteRequest(),
                  DemoteResponse());
  // The view decoders read the owning forms' bytes.
  ExpectRobustDecoding<RequestEnvelopeView>(Encode(request_env) + unknown);
  ExpectRobustDecoding<IngestBatchRequestView>(Encode(batch) + unknown);
}

TEST(ApiFrontendTest, DispatchOnGarbageNeverCrashes) {
  ServiceFrontend frontend;
  std::mt19937_64 rng(0xFADEFEED);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage(rng() % 64, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    const std::string response = frontend.Dispatch(garbage);
    // Whatever came in, a well-formed envelope goes out.
    ResponseEnvelope env;
    ASSERT_TRUE(env.DecodeFrom(response).ok()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Frontend: lifecycle, isolation, pagination
// ---------------------------------------------------------------------

Status CreateSmallTopic(ServiceFrontend& frontend, const std::string& tenant,
                        const std::string& name) {
  CreateTopicRequest req;
  req.name = name;
  req.config = SmallConfig();
  CreateTopicResponse resp;
  return frontend.CreateTopic(tenant, req, &resp);
}

Status IngestTexts(ServiceFrontend& frontend, const std::string& tenant,
                   const std::string& topic, std::vector<std::string> texts,
                   uint64_t* retry_after_us = nullptr) {
  IngestBatchRequest req;
  req.topic = topic;
  req.texts = std::move(texts);
  IngestBatchResponse resp;
  return frontend.IngestBatch(tenant, std::move(req), &resp, retry_after_us);
}

TEST(ApiFrontendTest, EndToEndLifecycle) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "events")
                  .IsAlreadyExists());

  std::vector<std::string> texts;
  for (int i = 0; i < 120; ++i) texts.push_back(SshLog(i));
  for (int i = 0; i < 40; ++i) texts.push_back(DiskLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "events", texts).ok());

  TrainNowRequest train;
  train.topic = "events";
  TrainNowResponse trained;
  ASSERT_TRUE(frontend.TrainNow("acme", train, &trained).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "events";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, 160u);
  EXPECT_GT(stats.stats.num_templates, 0u);

  QueryRequest query;
  query.topic = "events";
  query.saturation_threshold = 0.5;
  QueryResponse result;
  ASSERT_TRUE(frontend.Query("acme", query, &result).ok());
  ASSERT_GE(result.groups.size(), 2u);
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 160u);
  EXPECT_TRUE(result.next_cursor.empty());

  ListTopicsResponse listing;
  ASSERT_TRUE(frontend.ListTopics("acme", {}, &listing).ok());
  EXPECT_EQ(listing.names, (std::vector<std::string>{"events"}));

  DeleteTopicRequest drop;
  drop.name = "events";
  DeleteTopicResponse dropped;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_TRUE(frontend.Query("acme", query, &result).IsNotFound());
  ASSERT_TRUE(frontend.ListTopics("acme", {}, &listing).ok());
  EXPECT_TRUE(listing.names.empty());
  EXPECT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).IsNotFound());
}

TEST(ApiFrontendTest, WireLevelDispatchEndToEnd) {
  ServiceFrontend frontend;

  CreateTopicRequest create;
  create.name = "wire";
  create.config = SmallConfig();
  ResponseEnvelope env;
  CreateTopicResponse created;
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kCreateTopic, "acme", create)),
                             &created)
                  .ok());

  IngestBatchRequest batch;
  batch.topic = "wire";
  for (int i = 0; i < 80; ++i) batch.texts.push_back(SshLog(i));
  IngestBatchResponse seqs;
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kIngestBatch, "acme", batch)),
                             &seqs)
                  .ok());
  ASSERT_EQ(seqs.seqs.size(), 80u);
  EXPECT_EQ(seqs.seqs.front(), 0u);
  EXPECT_EQ(seqs.seqs.back(), 79u);

  QueryRequest query;
  query.topic = "wire";
  query.saturation_threshold = 0.5;
  QueryResponse result;
  ASSERT_TRUE(
      DecodeResponse(
          frontend.Dispatch(EncodeRequest(ApiMethod::kQuery, "acme", query)),
          &result)
          .ok());
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 80u);

  // Unknown method → NotSupported envelope, not a crash.
  RequestEnvelope unknown;
  unknown.method = static_cast<ApiMethod>(77);
  unknown.tenant = "acme";
  std::string unknown_bytes;
  unknown.EncodeTo(&unknown_bytes);
  ResponseEnvelope unknown_resp;
  ASSERT_TRUE(unknown_resp.DecodeFrom(frontend.Dispatch(unknown_bytes)).ok());
  EXPECT_TRUE(unknown_resp.status.IsNotSupported());

  // Missing tenant → InvalidArgument through the wire.
  DeleteTopicRequest drop;
  drop.name = "wire";
  DeleteTopicResponse dropped;
  uint64_t retry = 0;
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kDeleteTopic, "", drop)),
                             &dropped, &retry)
                  .IsInvalidArgument());
}

TEST(ApiFrontendTest, TenantIsolation) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "shared-name").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "shared-name", texts).ok());

  // Tenant B sees nothing of A's topic: not in listings, not readable,
  // not deletable — and can claim the same visible name.
  ListTopicsResponse listing;
  ASSERT_TRUE(frontend.ListTopics("globex", {}, &listing).ok());
  EXPECT_TRUE(listing.names.empty());

  GetStatsRequest stats_req;
  stats_req.topic = "shared-name";
  GetStatsResponse stats;
  EXPECT_TRUE(
      frontend.GetStats("globex", stats_req, &stats).IsNotFound());

  DeleteTopicRequest drop;
  drop.name = "shared-name";
  DeleteTopicResponse dropped;
  EXPECT_TRUE(frontend.DeleteTopic("globex", drop, &dropped).IsNotFound());

  ASSERT_TRUE(CreateSmallTopic(frontend, "globex", "shared-name").ok());
  ASSERT_TRUE(
      IngestTexts(frontend, "globex", "shared-name", {DiskLog(1)}).ok());

  GetStatsResponse a_stats, b_stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &a_stats).ok());
  ASSERT_TRUE(frontend.GetStats("globex", stats_req, &b_stats).ok());
  EXPECT_EQ(a_stats.stats.ingested_records, 60u);
  EXPECT_EQ(b_stats.stats.ingested_records, 1u);

  // A's delete removes only A's topic.
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_TRUE(frontend.GetStats("acme", stats_req, &a_stats).IsNotFound());
  EXPECT_TRUE(frontend.GetStats("globex", stats_req, &b_stats).ok());

  // Names that could escape the namespace — or, under storage_root,
  // the directory sandbox — are rejected: separators and the two path
  // traversal components.
  EXPECT_TRUE(CreateSmallTopic(frontend, "a/b", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "a/b").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "..", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "..").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, ".", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", ".").IsInvalidArgument());
}

TEST(ApiFrontendTest, PaginatedQueryEqualsUnpaginated) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 150; ++i) {
    texts.push_back(SshLog(i));
    texts.push_back(DiskLog(i));
    texts.push_back("FATAL replication lag on shard " + std::to_string(i % 4));
  }
  ASSERT_TRUE(IngestTexts(frontend, "acme", "events", texts).ok());
  TrainNowRequest train;
  train.topic = "events";
  TrainNowResponse trained;
  ASSERT_TRUE(frontend.TrainNow("acme", train, &trained).ok());

  QueryRequest query;
  query.topic = "events";
  query.saturation_threshold = 0.6;
  QueryResponse full;
  ASSERT_TRUE(frontend.Query("acme", query, &full).ok());
  ASSERT_GE(full.groups.size(), 3u);

  query.max_groups = 2;
  std::vector<TemplateGroup> paged;
  int pages = 0;
  for (;;) {
    QueryResponse page;
    ASSERT_TRUE(frontend.Query("acme", query, &page).ok());
    EXPECT_LE(page.groups.size(), 2u);
    for (TemplateGroup& g : page.groups) paged.push_back(std::move(g));
    ++pages;
    ASSERT_LT(pages, 200);
    if (page.next_cursor.empty()) break;
    query.cursor = page.next_cursor;
  }
  ASSERT_EQ(paged.size(), full.groups.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].template_id, full.groups[i].template_id) << i;
    EXPECT_EQ(paged[i].template_text, full.groups[i].template_text) << i;
    EXPECT_EQ(paged[i].count, full.groups[i].count) << i;
    EXPECT_EQ(paged[i].sequence_numbers, full.groups[i].sequence_numbers)
        << i;
  }

  // The cursor pins the window: records ingested between pages are
  // invisible to the remaining pages.
  query.cursor.clear();
  query.max_groups = 1;
  QueryResponse first_page;
  ASSERT_TRUE(frontend.Query("acme", query, &first_page).ok());
  ASSERT_FALSE(first_page.next_cursor.empty());
  ASSERT_TRUE(
      IngestTexts(frontend, "acme", "events", {SshLog(1), SshLog(2)}).ok());
  uint64_t paged_total = 0;
  for (const TemplateGroup& g : first_page.groups) paged_total += g.count;
  query.cursor = first_page.next_cursor;
  for (;;) {
    QueryResponse page;
    ASSERT_TRUE(frontend.Query("acme", query, &page).ok());
    for (const TemplateGroup& g : page.groups) paged_total += g.count;
    if (page.next_cursor.empty()) break;
    query.cursor = page.next_cursor;
  }
  EXPECT_EQ(paged_total, texts.size());

  // Sequence-number omission leaves grouping untouched.
  query.cursor.clear();
  query.max_groups = 0;
  query.include_sequence_numbers = false;
  QueryResponse lean;
  ASSERT_TRUE(frontend.Query("acme", query, &lean).ok());
  // The two extra records may have shifted counts; compare against a
  // fresh full query instead of the stale one.
  QueryResponse full_now;
  query.include_sequence_numbers = true;
  ASSERT_TRUE(frontend.Query("acme", query, &full_now).ok());
  ASSERT_EQ(lean.groups.size(), full_now.groups.size());
  for (size_t i = 0; i < lean.groups.size(); ++i) {
    EXPECT_EQ(lean.groups[i].template_id, full_now.groups[i].template_id);
    EXPECT_EQ(lean.groups[i].count, full_now.groups[i].count);
    EXPECT_TRUE(lean.groups[i].sequence_numbers.empty());
  }

  // A corrupted cursor is an InvalidArgument, not a crash.
  query.cursor = "not a cursor";
  QueryResponse broken;
  EXPECT_TRUE(frontend.Query("acme", query, &broken).IsInvalidArgument());
}

// A cursor is client-held bytes: every truncation and a seeded fuzz of
// byte flips of a real one must come back OK or InvalidArgument.
TEST(ApiFrontendTest, MangledCursorsAreRejectedOrServed) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) {
    texts.push_back(SshLog(i));
    texts.push_back(DiskLog(i));
  }
  ASSERT_TRUE(IngestTexts(frontend, "acme", "events", texts).ok());
  QueryRequest query;
  query.topic = "events";
  query.max_groups = 1;
  QueryResponse first;
  ASSERT_TRUE(frontend.Query("acme", query, &first).ok());
  const std::string cursor = first.next_cursor;
  ASSERT_FALSE(cursor.empty());

  const auto expect_verdict = [&](const std::string& mangled) {
    query.cursor = mangled;
    QueryResponse page;
    const Status s = frontend.Query("acme", query, &page);
    EXPECT_TRUE(s.ok() || s.IsInvalidArgument()) << s.ToString();
  };
  for (size_t len = 1; len < cursor.size(); ++len) {
    expect_verdict(cursor.substr(0, len));
  }
  std::mt19937_64 rng(0xC0B5EED);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = cursor;
    mutated[rng() % mutated.size()] = static_cast<char>(rng() & 0xFF);
    expect_verdict(mutated);
  }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, TopicQuotaEnforcedAndReleasedOnDelete) {
  FrontendConfig config;
  config.max_topics_per_tenant = 2;
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "a").ok());
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "b").ok());
  const Status third = CreateSmallTopic(frontend, "acme", "c");
  EXPECT_TRUE(third.IsResourceExhausted()) << third.ToString();
  // Another tenant has its own quota.
  EXPECT_TRUE(CreateSmallTopic(frontend, "globex", "a").ok());
  // Deleting frees the slot; a failed create never consumes one.
  DeleteTopicRequest drop;
  drop.name = "a";
  DeleteTopicResponse dropped;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "c").ok());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "b").IsAlreadyExists());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "d").IsResourceExhausted());
}

TEST(ApiFrontendTest, RateQuotaDeniesWithRetryHintAndRecovers) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 1000;
  config.burst_seconds = 1.0;  // capacity: 1000 records
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  std::vector<std::string> batch;
  for (int i = 0; i < 800; ++i) batch.push_back(SshLog(i));

  // First 800 drain the bucket to 200; the next 800 must wait for 600
  // records to refill → 600ms hint.
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch).ok());
  uint64_t retry_after_us = 0;
  const Status denied =
      IngestTexts(frontend, "acme", "t", batch, &retry_after_us);
  ASSERT_TRUE(denied.IsResourceExhausted()) << denied.ToString();
  EXPECT_NEAR(static_cast<double>(retry_after_us), 600'000.0, 1'000.0);

  // A denial consumes nothing: the same request succeeds exactly when
  // the hint says.
  fake_now_us += retry_after_us;
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch, &retry_after_us).ok());

  // Single-record Ingest is metered by the same buckets.
  IngestRequest one;
  one.topic = "t";
  one.text = SshLog(0);
  IngestResponse one_resp;
  const Status one_denied =
      frontend.Ingest("acme", one, &one_resp, &retry_after_us);
  EXPECT_TRUE(one_denied.IsResourceExhausted());
  EXPECT_GT(retry_after_us, 0u);
  fake_now_us += retry_after_us;
  EXPECT_TRUE(frontend.Ingest("acme", one, &one_resp, &retry_after_us).ok());

  // Other tenants are unaffected throughout.
  ASSERT_TRUE(CreateSmallTopic(frontend, "globex", "t").ok());
  EXPECT_TRUE(IngestTexts(frontend, "globex", "t", {SshLog(1)}).ok());
}

TEST(ApiFrontendTest, TenantMeterCountsAdmittedAndDenied) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 1000;
  config.burst_seconds = 1.0;  // capacity: 1000 records
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  std::vector<std::string> batch;
  uint64_t batch_bytes = 0;
  for (int i = 0; i < 800; ++i) {
    batch.push_back(SshLog(i));
    batch_bytes += batch.back().size();
  }
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch).ok());
  uint64_t retry_after_us = 0;
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch, &retry_after_us)
                  .IsResourceExhausted());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.tenant.admitted_requests, 1u);
  EXPECT_EQ(stats.tenant.admitted_records, 800u);
  EXPECT_EQ(stats.tenant.admitted_bytes, batch_bytes);
  // The denial was counted — and consumed nothing (denied, not lost).
  EXPECT_EQ(stats.tenant.denied_requests, 1u);
  EXPECT_EQ(stats.tenant.denied_records, 800u);
  EXPECT_EQ(stats.tenant.denied_bytes, batch_bytes);

  // The meter is tenant-wide: another tenant starts from zero.
  ASSERT_TRUE(CreateSmallTopic(frontend, "globex", "t").ok());
  GetStatsResponse other;
  ASSERT_TRUE(frontend.GetStats("globex", stats_req, &other).ok());
  EXPECT_EQ(other.tenant.admitted_requests, 0u);
  EXPECT_EQ(other.tenant.denied_requests, 0u);
}

TEST(ApiFrontendTest, TenantMeterCountsEvenWithoutRateLimits) {
  // Unlimited rates skip the token buckets entirely — the meter must
  // still record usage.
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());
  ASSERT_TRUE(
      IngestTexts(frontend, "acme", "t", {SshLog(1), SshLog(2)}).ok());
  IngestRequest one;
  one.topic = "t";
  one.text = SshLog(3);
  IngestResponse one_resp;
  ASSERT_TRUE(frontend.Ingest("acme", one, &one_resp).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.tenant.admitted_requests, 2u);
  EXPECT_EQ(stats.tenant.admitted_records, 3u);
  EXPECT_EQ(stats.tenant.admitted_bytes,
            SshLog(1).size() + SshLog(2).size() + SshLog(3).size());
  EXPECT_EQ(stats.tenant.denied_requests, 0u);
}

TEST(ApiFrontendTest, OversizedBatchAdmittedOnlyAgainstFullBucket) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 100;  // capacity: 100
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  std::vector<std::string> huge;
  for (int i = 0; i < 500; ++i) huge.push_back(SshLog(i));
  // Admitted against the full bucket (otherwise it could never run) —
  // and the overdraft delays the next request by the full debt.
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", huge).ok());
  uint64_t retry_after_us = 0;
  const Status denied =
      IngestTexts(frontend, "acme", "t", {SshLog(0)}, &retry_after_us);
  ASSERT_TRUE(denied.IsResourceExhausted());
  // Debt: -400 tokens; one record needs 401 refilled → ~4.01s.
  EXPECT_GT(retry_after_us, 4'000'000u);
  fake_now_us += retry_after_us;
  EXPECT_TRUE(
      IngestTexts(frontend, "acme", "t", {SshLog(0)}, &retry_after_us).ok());
}

TEST(ApiFrontendTest, MalformedBatchIsRejectedBeforeAdmission) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 100;  // capacity: 100
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  // Three texts, one timestamp: through the typed call and the wire.
  IngestBatchRequest bad;
  bad.topic = "t";
  bad.texts = {SshLog(1), SshLog(2), SshLog(3)};
  bad.timestamps_us = {7};
  IngestBatchResponse resp;
  EXPECT_TRUE(frontend.IngestBatch("acme", bad, &resp).IsInvalidArgument());
  IngestBatchResponse wire_resp;
  const std::string response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kIngestBatch, "acme", bad));
  EXPECT_TRUE(DecodeResponse(response, &wire_resp).IsInvalidArgument());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, 0u);
  EXPECT_EQ(stats.tenant.admitted_requests, 0u);
  EXPECT_EQ(stats.tenant.admitted_records, 0u);
  EXPECT_EQ(stats.tenant.admitted_bytes, 0u);
  EXPECT_EQ(stats.tenant.denied_requests, 0u);

  // The bucket is still full: a batch of exactly its capacity passes,
  // with no refill time elapsed.
  std::vector<std::string> full;
  for (int i = 0; i < 100; ++i) full.push_back(SshLog(i));
  EXPECT_TRUE(IngestTexts(frontend, "acme", "t", full).ok());
}

TEST(ApiFrontendTest, InflightBatchCapRefusesConcurrentBatch) {
  FrontendConfig config;
  config.max_inflight_batches = 1;
  ServiceFrontend* frontend_ptr = nullptr;
  std::atomic<int> denials{0};
  std::atomic<bool> reentered{false};
  config.on_ingest_batch_start = [&](std::string_view tenant) {
    // Runs with the first batch's in-flight slot held: a second batch
    // for the same tenant must be refused, fast, with a hint.
    if (reentered.exchange(true)) return;  // only probe from the outer call
    IngestBatchRequest inner;
    inner.topic = "t";
    inner.texts = {"probe line"};
    IngestBatchResponse resp;
    uint64_t retry_after_us = 0;
    const Status denied = frontend_ptr->IngestBatch(
        std::string(tenant), std::move(inner), &resp, &retry_after_us);
    if (denied.IsResourceExhausted() && retry_after_us > 0) ++denials;
  };
  ServiceFrontend frontend(config);
  frontend_ptr = &frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", {SshLog(0)}).ok());
  EXPECT_EQ(denials.load(), 1);
  // The slot was released: the next batch sails through (its own probe
  // is suppressed by the reentered flag).
  EXPECT_TRUE(IngestTexts(frontend, "acme", "t", {SshLog(1)}).ok());
  // The cap rejection was metered as a denial like a rate-limit one.
  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.tenant.denied_requests, 1u);
  EXPECT_EQ(stats.tenant.denied_records, 1u);
  EXPECT_EQ(stats.tenant.admitted_requests, 2u);
}

// ---------------------------------------------------------------------
// Config validation + live updates
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, CreateTopicValidatesConfigUpFront) {
  ServiceFrontend frontend;
  CreateTopicRequest req;
  req.name = "t";
  CreateTopicResponse resp;

  req.config = SmallConfig();
  req.config.num_ingest_shards = 0;
  Status s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("num_ingest_shards"), std::string::npos);

  req.config = SmallConfig();
  req.config.train_interval_records = 0;
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("train_interval_records"), std::string::npos);

  req.config = SmallConfig();
  req.config.variable_rules = {{"broken", "(unclosed"}};
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("broken"), std::string::npos);

  req.config = SmallConfig();
  req.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  req.config.storage.directory = "";
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("storage.directory"), std::string::npos);

  req.config = SmallConfig();  // kMemory storage
  req.config.durability = DurabilityMode::kWalGroupCommit;
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("durability"), std::string::npos);

  // None of the rejected creates consumed the name or a quota slot.
  req.config = SmallConfig();
  EXPECT_TRUE(frontend.CreateTopic("acme", req, &resp).ok());
}

TEST(ApiFrontendTest, UpdateTopicConfigAppliesLive) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  ASSERT_EQ(stats.stats.trainings, 1u);  // initial training at 50

  // Tighten the retrain cadence live: the next 200 records must now
  // trigger retrains (the original interval was effectively infinite).
  UpdateTopicConfigRequest update;
  update.name = "t";
  update.patch.train_interval_records = 100;
  UpdateTopicConfigResponse updated;
  ASSERT_TRUE(frontend.UpdateTopicConfig("acme", update, &updated).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(IngestTexts(frontend, "acme", "t", {SshLog(i)}).ok());
  }
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_GE(stats.stats.trainings, 2u);

  // A shard-count patch is stored (the knob selects nothing) and
  // ingest keeps grouping correctly after it.
  update.patch = TopicConfigPatch();
  update.patch.num_ingest_shards = 4;
  ASSERT_TRUE(frontend.UpdateTopicConfig("acme", update, &updated).ok());
  std::vector<std::string> more;
  for (int i = 0; i < 128; ++i) more.push_back(DiskLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", more).ok());
  auto topic = frontend.service()->GetTopic("acme/t");
  ASSERT_TRUE(topic.ok());
  EXPECT_EQ(topic.value()->config().num_ingest_shards, 4);

  QueryRequest query;
  query.topic = "t";
  query.saturation_threshold = 0.5;
  QueryResponse result;
  ASSERT_TRUE(frontend.Query("acme", query, &result).ok());
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 60u + 200u + 128u);

  // Invalid patch: rejected atomically, nothing applied.
  update.patch = TopicConfigPatch();
  update.patch.num_threads = 0;
  const Status bad = frontend.UpdateTopicConfig("acme", update, &updated);
  ASSERT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("num_threads"), std::string::npos);
}

// ---------------------------------------------------------------------
// Lifecycle vs storage and background training
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, DeleteTopicPurgesOrKeepsDiskStorage) {
  TempDir root;
  FrontendConfig fconfig;
  fconfig.storage_root = root.path();
  ServiceFrontend frontend(fconfig);
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  create.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  create.config.storage.segment_data_bytes = 4096;
  CreateTopicResponse created;

  // With a storage root, clients must not pick their own directory —
  // a wire-supplied path could alias (and purge-delete) another
  // tenant's bytes.
  create.config.storage.directory = root.path() + "/globex/t";
  const Status hijack = frontend.CreateTopic("acme", create, &created);
  ASSERT_TRUE(hijack.IsInvalidArgument()) << hijack.ToString();
  EXPECT_NE(hijack.message().find("storage.directory"), std::string::npos);

  // The frontend assigns <root>/<tenant>/<topic>.
  create.config.storage.directory.clear();
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  const std::string assigned = root.path() + "/acme/t";
  std::vector<std::string> texts;
  for (int i = 0; i < 200; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());
  ASSERT_TRUE(std::filesystem::exists(assigned));

  // Keep the bytes: the directory survives and a re-create RECOVERS
  // the records.
  DeleteTopicRequest drop;
  drop.name = "t";
  drop.purge_storage = false;
  DeleteTopicResponse dropped;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  ASSERT_TRUE(std::filesystem::exists(assigned));
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.recovered_records, 200u);

  // Purge: the directory goes with the topic.
  drop.purge_storage = true;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_FALSE(std::filesystem::exists(assigned));
}

TEST(ApiFrontendTest, DeleteTopicDrainsInFlightTraining) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> training_started{false};

  FrontendConfig fconfig;
  ServiceFrontend frontend(fconfig);
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  create.config.async_training = true;
  create.config.sync_initial_training = false;
  create.config.on_async_training_start = [&] {
    training_started.store(true);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());

  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());
  while (!training_started.load()) std::this_thread::yield();

  // Delete while the training is gated in flight; the destructor must
  // drain it (not deadlock, not crash). Open the gate from a helper
  // thread once the delete is underway.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  });
  DeleteTopicRequest drop;
  drop.name = "t";
  DeleteTopicResponse dropped;
  EXPECT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  opener.join();
  ListTopicsResponse listing;
  ASSERT_TRUE(frontend.ListTopics("acme", {}, &listing).ok());
  EXPECT_TRUE(listing.names.empty());
}

// ---------------------------------------------------------------------
// Concurrency (run under TSAN via the ci tsan job)
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, ConcurrentFrontendUseIsClean) {
  FrontendConfig config;
  config.max_inflight_batches = 8;
  ServiceFrontend frontend(config);
  TopicConfig topic_config = SmallConfig();
  topic_config.async_training = true;
  topic_config.train_interval_records = 500;
  CreateTopicRequest create;
  create.name = "t";
  create.config = topic_config;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  ASSERT_TRUE(frontend.CreateTopic("globex", create, &created).ok());

  constexpr int kBatches = 20;
  constexpr int kBatchSize = 64;
  std::atomic<uint64_t> acme_ok{0};

  auto ingester = [&](const std::string& tenant, int salt,
                      std::atomic<uint64_t>* ok_records) {
    for (int b = 0; b < kBatches; ++b) {
      IngestBatchRequest req;
      req.topic = "t";
      for (int i = 0; i < kBatchSize; ++i) {
        req.texts.push_back(SshLog(salt * 10000 + b * kBatchSize + i));
      }
      IngestBatchResponse resp;
      const Status s =
          frontend.IngestBatch(tenant, std::move(req), &resp, nullptr);
      if (s.ok() && ok_records != nullptr) {
        ok_records->fetch_add(resp.seqs.size());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(ingester, "acme", 1, &acme_ok);
  threads.emplace_back(ingester, "acme", 2, &acme_ok);
  threads.emplace_back(ingester, "globex", 3, nullptr);
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      QueryRequest query;
      query.topic = "t";
      query.saturation_threshold = 0.6;
      query.max_groups = 4;
      query.include_sequence_numbers = false;
      QueryResponse result;
      (void)frontend.Query("acme", query, &result);
      GetStatsRequest stats_req;
      stats_req.topic = "t";
      GetStatsResponse stats;
      (void)frontend.GetStats("acme", stats_req, &stats);
      ListTopicsResponse listing;
      (void)frontend.ListTopics("acme", {}, &listing);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    // Churn a third tenant's lifecycle while the others run.
    for (int i = 0; i < 10; ++i) {
      CreateTopicRequest c;
      c.name = "scratch";
      c.config = SmallConfig();
      CreateTopicResponse cr;
      (void)frontend.CreateTopic("initech", c, &cr);
      IngestBatchRequest req;
      req.topic = "scratch";
      req.texts = {DiskLog(i)};
      IngestBatchResponse resp;
      (void)frontend.IngestBatch("initech", std::move(req), &resp, nullptr);
      DeleteTopicRequest d;
      d.name = "scratch";
      DeleteTopicResponse dr;
      (void)frontend.DeleteTopic("initech", d, &dr);
    }
  });
  for (std::thread& t : threads) t.join();

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, acme_ok.load());
  EXPECT_EQ(acme_ok.load(),
            static_cast<uint64_t>(2 * kBatches * kBatchSize));
}

TEST(ApiFrontendTest, ConcurrentLiveReshardIsClean) {
  ServiceFrontend frontend;
  TopicConfig topic_config = SmallConfig();
  topic_config.num_ingest_shards = 4;
  CreateTopicRequest create;
  create.name = "t";
  create.config = topic_config;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  // Train first so batches take the sharded path from the start.
  std::vector<std::string> seed;
  for (int i = 0; i < 60; ++i) seed.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", seed).ok());

  constexpr int kBatches = 30;
  constexpr int kBatchSize = 64;
  std::atomic<uint64_t> ok_records{0};
  auto ingester = [&](int salt) {
    for (int b = 0; b < kBatches; ++b) {
      IngestBatchRequest req;
      req.topic = "t";
      for (int i = 0; i < kBatchSize; ++i) {
        req.texts.push_back(SshLog(salt * 100000 + b * kBatchSize + i));
      }
      IngestBatchResponse resp;
      if (frontend.IngestBatch("acme", std::move(req), &resp, nullptr).ok()) {
        ok_records.fetch_add(resp.seqs.size());
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(ingester, 1);
  threads.emplace_back(ingester, 2);
  threads.emplace_back([&] {
    // Flip the shard count under live traffic: batches racing the
    // reshard must fall back safely (generation bump), never touch a
    // stale shard set, and lose no records.
    const int shard_counts[] = {1, 4, 2, 8, 1, 4};
    for (int n : shard_counts) {
      UpdateTopicConfigRequest update;
      update.name = "t";
      update.patch.num_ingest_shards = n;
      UpdateTopicConfigResponse updated;
      ASSERT_TRUE(frontend.UpdateTopicConfig("acme", update, &updated).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : threads) t.join();

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, 60u + ok_records.load());
  EXPECT_EQ(ok_records.load(),
            static_cast<uint64_t>(2 * kBatches * kBatchSize));

  // Every record still groups and resolves.
  QueryRequest query;
  query.topic = "t";
  query.saturation_threshold = 0.5;
  query.include_sequence_numbers = false;
  QueryResponse result;
  ASSERT_TRUE(frontend.Query("acme", query, &result).ok());
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 60u + ok_records.load());
}

// ---------------------------------------------------------------------
// Envelope v2: request ids + auth tokens
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, EnvelopeV2FieldsRoundTrip) {
  RequestEnvelope req;
  req.method = ApiMethod::kIngest;
  req.tenant = "acme";
  req.payload = "p";
  req.request_id = 0xDEADBEEFCAFEull;
  req.auth_token = "s3cret\0bytes";

  RequestEnvelope got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.request_id, req.request_id);
  EXPECT_EQ(got.auth_token, req.auth_token);

  // The view aliases the encoded buffer — keep it alive while reading.
  const std::string encoded = Encode(req);
  RequestEnvelopeView view;
  ASSERT_TRUE(view.DecodeFrom(encoded).ok());
  EXPECT_EQ(view.request_id, req.request_id);
  EXPECT_EQ(view.auth_token, req.auth_token);

  ResponseEnvelope resp;
  resp.status = Status::OK();
  resp.request_id = 77;
  ResponseEnvelope resp2;
  ASSERT_TRUE(resp2.DecodeFrom(Encode(resp)).ok());
  EXPECT_EQ(resp2.request_id, 77u);
}

TEST(ApiMessagesTest, V2FieldsAreOptionalOnTheWire) {
  // Zero request_id / empty token encode NOTHING — byte-identical to
  // what a v1 encoder produced, so v1 peers round-trip unchanged.
  RequestEnvelope v1_shape;
  v1_shape.method = ApiMethod::kQuery;
  v1_shape.tenant = "t";
  v1_shape.payload = "x";
  RequestEnvelope with_fields = v1_shape;
  with_fields.request_id = 0;
  with_fields.auth_token = "";
  EXPECT_EQ(Encode(v1_shape), Encode(with_fields));

  // And a v1-version envelope (api_version = 1, no v2 tags) decodes
  // with the v2 defaults.
  RequestEnvelope old_peer = v1_shape;
  old_peer.api_version = 1;
  RequestEnvelope got;
  ASSERT_TRUE(got.DecodeFrom(Encode(old_peer)).ok());
  EXPECT_EQ(got.api_version, 1u);
  EXPECT_EQ(got.request_id, 0u);
  EXPECT_TRUE(got.auth_token.empty());
}

TEST(ApiMessagesTest, V2EnvelopeTruncationAndFuzzNeverCrash) {
  RequestEnvelope req;
  req.method = ApiMethod::kIngestBatch;
  req.tenant = "acme";
  req.payload = "payload-bytes";
  req.request_id = 123456789;
  req.auth_token = "token-token-token";
  ExpectRobustDecoding<RequestEnvelope>(Encode(req));

  ResponseEnvelope resp;
  resp.status = Status::PermissionDenied("no");
  resp.request_id = 987654321;
  resp.payload = "x";
  ExpectRobustDecoding<ResponseEnvelope>(Encode(resp));
}

TEST(ApiFrontendTest, DispatchEchoesRequestId) {
  ServiceFrontend frontend;
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  ServiceFrontend::DispatchInfo info;
  const std::string response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kCreateTopic, "acme", create, /*request_id=*/42),
      &info);
  CreateTopicResponse created;
  uint64_t echoed = 0;
  ASSERT_TRUE(DecodeResponse(response, &created, nullptr, &echoed).ok());
  EXPECT_EQ(echoed, 42u);
  EXPECT_EQ(info.request_id, 42u);
  EXPECT_EQ(info.code, Status::Code::kOk);

  // Errors echo the id too — correlation matters MOST for failures.
  const std::string err_response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kCreateTopic, "acme", create, /*request_id=*/43),
      &info);
  CreateTopicResponse dup;
  echoed = 0;
  EXPECT_TRUE(DecodeResponse(err_response, &dup, nullptr, &echoed)
                  .IsAlreadyExists());
  EXPECT_EQ(echoed, 43u);
  EXPECT_EQ(info.code, Status::Code::kAlreadyExists);
}

TEST(ApiFrontendTest, AuthRejectsBeforeAdmissionAccounting) {
  FrontendConfig config;
  config.tenant_tokens = {{"acme", "acme-token"}, {"globex", "globex-token"}};
  ServiceFrontend frontend(config);

  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();

  // No token, wrong token, right-token-wrong-tenant, unknown tenant:
  // all PermissionDenied, all indistinguishable.
  auto denied_msg = [&](std::string_view tenant, std::string_view token) {
    ServiceFrontend::DispatchInfo info;
    const std::string response = frontend.Dispatch(
        EncodeRequest(ApiMethod::kCreateTopic, tenant, create, 1, token),
        &info);
    CreateTopicResponse resp;
    const Status s = DecodeResponse(response, &resp);
    EXPECT_TRUE(s.IsPermissionDenied()) << s.ToString();
    EXPECT_EQ(info.code, Status::Code::kPermissionDenied);
    return std::string(s.message());
  };
  const std::string a = denied_msg("acme", "");
  const std::string b = denied_msg("acme", "globex-token");
  const std::string c = denied_msg("nobody", "acme-token");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);

  // The right token works...
  ServiceFrontend::DispatchInfo info;
  std::string response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kCreateTopic, "acme", create, 2, "acme-token"),
      &info);
  CreateTopicResponse created;
  ASSERT_TRUE(DecodeResponse(response, &created).ok());

  // ...and auth-rejected ingests never reached admission: the tenant
  // meter records no denials (rejection happens BEFORE accounting).
  IngestBatchRequest batch;
  batch.topic = "t";
  batch.texts = {"a", "b"};
  for (int i = 0; i < 5; ++i) {
    frontend.Dispatch(
        EncodeRequest(ApiMethod::kIngestBatch, "acme", batch, 3, "wrong"));
  }
  GetStatsRequest stats_req;
  stats_req.topic = "t";
  response = frontend.Dispatch(EncodeRequest(ApiMethod::kGetStats, "acme",
                                             stats_req, 4, "acme-token"));
  GetStatsResponse stats;
  ASSERT_TRUE(DecodeResponse(response, &stats).ok());
  EXPECT_EQ(stats.tenant.denied_requests, 0u);
  EXPECT_EQ(stats.tenant.admitted_requests, 0u);
}

TEST(ApiFrontendTest, AuthDisabledAcceptsV1Envelopes) {
  // The pre-v2 client shape: api_version 1, no request_id, no token.
  // Against an auth-disabled frontend it must round-trip unchanged.
  ServiceFrontend frontend;
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  RequestEnvelope env;
  env.api_version = 1;
  env.method = ApiMethod::kCreateTopic;
  env.tenant = "acme";
  env.payload = Encode(create);
  CreateTopicResponse created;
  uint64_t echoed = 99;
  ASSERT_TRUE(
      DecodeResponse(frontend.Dispatch(Encode(env)), &created, nullptr,
                     &echoed)
          .ok());
  EXPECT_EQ(echoed, 0u);  // nothing to echo, nothing echoed
}

TEST(ApiFrontendTest, CustomAuthenticatorIsConsulted) {
  class EvenTenantsOnly : public Authenticator {
   public:
    Status Authenticate(std::string_view tenant,
                        std::string_view token) const override {
      if (!token.empty() && tenant.size() % 2 == 0) return Status::OK();
      return Status::PermissionDenied("odd tenant");
    }
  };
  FrontendConfig config;
  config.authenticator = std::make_shared<EvenTenantsOnly>();
  ServiceFrontend frontend(config);

  ListTopicsRequest list;
  ListTopicsResponse topics;
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "ab", list, 1, "x")),
                             &topics)
                  .ok());
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "abc", list, 2, "x")),
                             &topics)
                  .IsPermissionDenied());
}

// ---------------------------------------------------------------------
// Auth token rotation
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, TokenRotationSwapsTableWithoutDroppingService) {
  FrontendConfig config;
  config.tenant_tokens = {{"acme", "token-v1"}};
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());

  ListTopicsRequest list;
  ListTopicsResponse topics;
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 1,
                                 "token-v1")),
                             &topics)
                  .ok());

  // Rotate: the very next request sees the new table — the old token is
  // denied, the new one admitted, no connection or topic state lost.
  frontend.UpdateTenantTokens({{"acme", "token-v2"}, {"globex", "g-tok"}});
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 2,
                                 "token-v1")),
                             &topics)
                  .IsPermissionDenied());
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 3,
                                 "token-v2")),
                             &topics)
                  .ok());
  EXPECT_EQ(topics.names, (std::vector<std::string>{"events"}));
  // A tenant added by the rotation authenticates immediately.
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "globex", list, 4,
                                 "g-tok")),
                             &topics)
                  .ok());

  // Rotating to an empty table disables auth (mirrors construction).
  frontend.UpdateTenantTokens({});
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 5)),
                             &topics)
                  .ok());
}

TEST(ApiFrontendTest, TokenRotationUnderConcurrentDispatchIsClean) {
  FrontendConfig config;
  config.tenant_tokens = {{"acme", "tok-0"}};
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());

  std::atomic<bool> stop{false};
  std::thread rotator([&] {
    int gen = 0;
    while (!stop.load()) {
      frontend.UpdateTenantTokens({{"acme", "tok-" + std::to_string(++gen)}});
    }
  });
  // Requests race the rotation: every outcome must be ok or a clean
  // PermissionDenied — never a crash or a torn authenticator.
  for (int i = 0; i < 2000; ++i) {
    ListTopicsRequest list;
    ListTopicsResponse topics;
    const Status s = DecodeResponse(
        frontend.Dispatch(EncodeRequest(ApiMethod::kListTopics, "acme", list,
                                        static_cast<uint64_t>(i + 1),
                                        "tok-" + std::to_string(i))),
        &topics);
    ASSERT_TRUE(s.ok() || s.IsPermissionDenied()) << s.ToString();
  }
  stop.store(true);
  rotator.join();
}

// ---------------------------------------------------------------------
// Time-range query predicates
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, QueryTimeRangeFieldsAreOptionalOnTheWire) {
  // Defaults encode as absent tags: an unfiltered v2 request is
  // byte-identical to a v1 request.
  QueryRequest plain;
  plain.topic = "t";
  QueryRequest bounded = plain;
  bounded.min_timestamp_us = 10;
  bounded.max_timestamp_us = 20;
  EXPECT_LT(Encode(plain).size(), Encode(bounded).size());

  QueryRequest decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Encode(bounded)).ok());
  EXPECT_EQ(decoded.min_timestamp_us, 10u);
  EXPECT_EQ(decoded.max_timestamp_us, 20u);
  QueryRequest unfiltered;
  ASSERT_TRUE(unfiltered.DecodeFrom(Encode(plain)).ok());
  EXPECT_EQ(unfiltered.min_timestamp_us, 0u);
  EXPECT_EQ(unfiltered.max_timestamp_us, UINT64_MAX);
}

/// Ingests `n` records with timestamps 1..n into a topic.
Status IngestTimestamped(ServiceFrontend& frontend, const std::string& tenant,
                         const std::string& topic, int n) {
  IngestBatchRequest req;
  req.topic = topic;
  for (int i = 0; i < n; ++i) {
    req.texts.push_back(SshLog(i));
    req.timestamps_us.push_back(static_cast<uint64_t>(i + 1));
  }
  IngestBatchResponse resp;
  return frontend.IngestBatch(tenant, std::move(req), &resp, nullptr);
}

uint64_t CountInWindow(ServiceFrontend& frontend, const std::string& topic,
                       uint64_t min_ts, uint64_t max_ts,
                       uint32_t page_size = 0) {
  QueryRequest req;
  req.topic = topic;
  req.include_sequence_numbers = false;
  req.min_timestamp_us = min_ts;
  req.max_timestamp_us = max_ts;
  req.max_groups = page_size;
  uint64_t total = 0;
  while (true) {
    QueryResponse resp;
    if (!frontend.Query("acme", req, &resp).ok()) return UINT64_MAX;
    for (const TemplateGroup& g : resp.groups) total += g.count;
    if (resp.next_cursor.empty()) return total;
    req.cursor = resp.next_cursor;
  }
}

TEST(ApiFrontendTest, TimeRangeQueryFiltersMemoryAndDiskTopics) {
  // Disk-backed topic: sealed segments carry persisted min/max
  // timestamps, so out-of-window segments are pruned without a read.
  TempDir root;
  FrontendConfig config;
  config.storage_root = root.path();
  ServiceFrontend frontend(config);

  CreateTopicRequest create;
  create.name = "disk";
  create.config = SmallConfig();
  create.config.initial_train_records = 1u << 30;  // deterministic counts
  create.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  create.config.storage.segment_data_bytes = 2048;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  ASSERT_TRUE(IngestTimestamped(frontend, "acme", "disk", 200).ok());

  EXPECT_EQ(CountInWindow(frontend, "disk", 0, UINT64_MAX), 200u);
  EXPECT_EQ(CountInWindow(frontend, "disk", 51, 150), 100u);
  EXPECT_EQ(CountInWindow(frontend, "disk", 1, 1), 1u);
  EXPECT_EQ(CountInWindow(frontend, "disk", 201, UINT64_MAX), 0u);
  // Pagination pins the window in the cursor: paged == unpaged.
  EXPECT_EQ(CountInWindow(frontend, "disk", 51, 150, /*page_size=*/3), 100u);

  // Memory-backed topic: same semantics through the scan filter.
  CreateTopicRequest mem;
  mem.name = "mem";
  mem.config = SmallConfig();
  mem.config.initial_train_records = 1u << 30;
  CreateTopicResponse mem_created;
  ASSERT_TRUE(frontend.CreateTopic("acme", mem, &mem_created).ok());
  ASSERT_TRUE(IngestTimestamped(frontend, "acme", "mem", 120).ok());
  EXPECT_EQ(CountInWindow(frontend, "mem", 0, UINT64_MAX), 120u);
  EXPECT_EQ(CountInWindow(frontend, "mem", 30, 59), 30u);
  EXPECT_EQ(CountInWindow(frontend, "mem", 121, UINT64_MAX), 0u);
}

TEST(ApiFrontendTest, TimeRangePrunesSealedSegmentsWithoutScanning) {
  TempDir root;
  FrontendConfig config;
  config.storage_root = root.path();
  ServiceFrontend frontend(config);

  CreateTopicRequest create;
  create.name = "pruned";
  create.config = SmallConfig();
  create.config.initial_train_records = 1u << 30;
  create.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  create.config.storage.segment_data_bytes = 2048;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  ASSERT_TRUE(IngestTimestamped(frontend, "acme", "pruned", 400).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "pruned";
  GetStatsResponse before;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &before).ok());

  // A window entirely inside the FIRST records: every later sealed
  // segment's [min_ts, max_ts] misses it and is skipped without a
  // record visit (the postings fast path handles covered segments, so
  // visits only grow for the partially-covered boundary segment).
  EXPECT_EQ(CountInWindow(frontend, "pruned", 1, 10), 10u);
  GetStatsResponse after;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &after).ok());
  const uint64_t visits = after.stats.storage_scan_record_visits -
                          before.stats.storage_scan_record_visits;
  // Far fewer visits than records: pruning worked. The one boundary
  // segment may be header-hopped (~17 records per 2 KiB segment).
  EXPECT_LT(visits, 60u);
}

}  // namespace
}  // namespace api
}  // namespace bytebrain
