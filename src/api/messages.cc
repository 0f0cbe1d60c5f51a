#include "api/messages.h"

#include "api/wire.h"

namespace bytebrain {
namespace api {

Status StatusFromWire(uint32_t code, std::string message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Status::Code::kNotFound:
      return Status::NotFound(message);
    case Status::Code::kCorruption:
      return Status::Corruption(message);
    case Status::Code::kIOError:
      return Status::IOError(message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(message);
    case Status::Code::kAborted:
      return Status::Aborted(message);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(message);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case Status::Code::kPermissionDenied:
      return Status::PermissionDenied(message);
    case Status::Code::kUnavailable:
      return Status::Unavailable(message);
  }
  return Status::Corruption("unknown wire status code " +
                            std::to_string(code));
}

// ---------------------------------------------------------------------
// Field lists, one per wire struct, tags in encode order (api/wire.h).
// ---------------------------------------------------------------------

template <class V>
void Fields(TopicConfig& m, V& v) {
  v(1, m.train_volume_bytes);
  v(2, m.train_interval_records);
  v(3, m.initial_train_records);
  v(4, m.max_train_records);
  v(5, m.num_threads);
  v(6, m.num_ingest_shards);
  v(7, m.async_training);
  v(8, m.sync_initial_training);
  v.Enum(9, m.storage.kind, StorageConfig::Kind::kSegmentedDisk);
  v(10, m.storage.directory);
  v(11, m.storage.segment_data_bytes);
  v(12, m.storage.memory_segment_capacity);
  v(13, m.variable_rules);
  v.Enum(14, m.durability, DurabilityMode::kWalGroupCommit);
}

/// One variable rule: name -> pattern.
template <class V>
void Fields(std::pair<std::string, std::string>& m, V& v) {
  v(1, m.first);
  v(2, m.second);
}

template <class V>
void Fields(TopicConfigPatch& m, V& v) {
  v(1, m.train_volume_bytes);
  v(2, m.train_interval_records);
  v(3, m.initial_train_records);
  v(4, m.max_train_records);
  v(5, m.num_threads);
  v(6, m.num_ingest_shards);
  v(7, m.async_training);
}

template <class V>
void Fields(CreateTopicRequest& m, V& v) {
  v(1, m.name);
  v(2, m.config);
}

template <class V>
void Fields(UpdateTopicConfigRequest& m, V& v) {
  v(1, m.name);
  v(2, m.patch);
}

template <class V>
void Fields(DeleteTopicRequest& m, V& v) {
  v(1, m.name);
  v(2, m.purge_storage);
}

template <class V>
void Fields(ListTopicsResponse& m, V& v) { v(1, m.names); }

template <class V>
void Fields(IngestRequest& m, V& v) {
  v(1, m.topic);
  v(2, m.text);
  v(3, m.timestamp_us);
}

template <class V>
void Fields(IngestResponse& m, V& v) { v(1, m.seq); }

/// The owning and the borrowed batch request share one wire layout.
template <class M, class V>
  requires std::is_same_v<M, IngestBatchRequest> ||
           std::is_same_v<M, IngestBatchRequestView>
void Fields(M& m, V& v) {
  v(1, m.topic);
  v(2, m.texts);
  v.If(!m.timestamps_us.empty(), 3, m.timestamps_us);
}

template <class V>
void Fields(IngestBatchResponse& m, V& v) { v(1, m.seqs); }

template <class V>
void Fields(QueryRequest& m, V& v) {
  v(1, m.topic);
  v(2, m.saturation_threshold);
  v(3, m.begin_seq);
  v(4, m.end_seq);
  v(5, m.max_groups);
  v(6, m.cursor);
  v(7, m.include_sequence_numbers);
  v.If(m.min_timestamp_us != 0, 8, m.min_timestamp_us);
  v.If(m.max_timestamp_us != UINT64_MAX, 9, m.max_timestamp_us);
}

template <class V>
void Fields(TemplateGroup& m, V& v) {
  v(1, m.template_id);
  v(2, m.template_text);
  v(3, m.saturation);
  v(4, m.count);
  v.If(!m.sequence_numbers.empty(), 5, m.sequence_numbers);
}

template <class V>
void Fields(QueryResponse& m, V& v) {
  v(1, m.groups);
  v(2, m.next_cursor);
}

template <class V>
void Fields(GetStatsRequest& m, V& v) { v(1, m.topic); }

template <class V>
void Fields(ShardStats& m, V& v) {
  v(1, m.records);
  v(2, m.bytes);
  v(3, m.matched_shared);
  v(4, m.matched_pending);
  v(5, m.adopted);
  v(6, m.merges);
  v(7, m.memo_hits);
}

template <class V>
void Fields(TenantMeter& m, V& v) {
  v(1, m.admitted_requests);
  v(2, m.denied_requests);
  v(3, m.admitted_bytes);
  v(4, m.denied_bytes);
  v(5, m.admitted_records);
  v(6, m.denied_records);
}

template <class V>
void Fields(GetStatsResponse& m, V& v) {
  TopicStats& s = m.stats;
  v(1, s.ingested_records);
  v(2, s.ingested_bytes);
  v(3, s.trainings);
  v(4, s.matched_online);
  v(5, s.adopted_templates);
  v(6, s.model_bytes);
  v(7, s.last_training_seconds);
  v(8, s.num_templates);
  v(9, s.async_trainings);
  v(10, s.pending_trainings);
  v(11, s.coalesced_triggers);
  v(12, s.failed_trainings);
  v(13, s.last_swap_seconds);
  v(14, s.shard_merges);
  v(15, s.storage_persistent);
  v(16, s.storage_ok);
  v(17, s.storage_sealed_segments);
  v(18, s.storage_mapped_bytes);
  v(19, s.recovered_records);
  v(20, s.last_snapshot_copied_records);
  v(21, s.last_snapshot_mapped_records);
  v(22, s.shards);
  v(23, s.wal_bytes);
  v(24, s.wal_group_commits);
  v(25, s.wal_fsyncs);
  v(26, s.wal_replayed_records);
  v(27, m.tenant);
  v(28, s.storage_cache_hits);
  v(29, s.storage_cache_misses);
  v(30, s.storage_cache_evictions);
  v(31, s.storage_index_rebuilds);
  v(32, s.storage_scan_record_visits);
  v(33, s.replication_lag_bytes);
  v(34, s.replication_lag_records);
  v(35, s.replication_lag_segments);
  v(36, s.replica_role);
  v(37, s.last_training_threads);
}

template <class V>
void Fields(TrainNowRequest& m, V& v) { v(1, m.topic); }

template <class V>
void Fields(DetectAnomaliesRequest& m, V& v) {
  v(1, m.topic);
  v(2, m.window1_begin);
  v(3, m.window1_end);
  v(4, m.window2_begin);
  v(5, m.window2_end);
  v(6, m.min_change_ratio);
}

template <class V>
void Fields(TemplateAnomaly& m, V& v) {
  v(1, m.template_id);
  v(2, m.template_text);
  v(3, m.count_before);
  v(4, m.count_after);
  v(5, m.is_new);
  v(6, m.change_ratio);
}

template <class V>
void Fields(DetectAnomaliesResponse& m, V& v) { v(1, m.anomalies); }

template <class V>
void Fields(ReplPullRequest& m, V& v) {
  v(1, m.topic);
  v(2, m.segment_index);
  v(3, m.offset);
  v(4, m.max_bytes);
  v(5, m.model_generation);
  v(6, m.want_config);
}

template <class V>
void Fields(ReplPullResponse& m, V& v) {
  v(1, m.topics);
  v(2, m.segment_index);
  v(3, m.offset);
  v(4, m.data);
  v(5, m.segment_sealed);
  v(6, m.segment_records);
  v(7, m.segment_checksum);
  v(8, m.segment_data_len);
  v(9, m.source_records);
  v(10, m.source_segments);
  v(11, m.source_bytes);
  v(12, m.has_config);
  v.If(m.has_config, 13, m.config);
  v(14, m.has_model);
  v.If(m.has_model, 15, m.model_blob);
  v(16, m.model_generation);
}

template <class V>
void Fields(PromoteResponse& m, V& v) { v(1, m.sealed_topics); }

// ---------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------

namespace {

template <typename Frame>
Status DecodeFrame(std::string_view bytes, Frame* frame) {
  uint32_t version = 0;
  if (!ByteReader(bytes).GetU32(&version)) {
    return Status::Corruption("truncated envelope header");
  }
  if (version == 0) return Status::InvalidArgument("unsupported api version 0");
  BB_RETURN_IF_ERROR(DecodeFields(bytes.substr(4), frame));
  frame->api_version = version;
  return Status::OK();
}

}  // namespace

void RequestEnvelope::EncodeTo(std::string* out) const {
  RequestFrame<std::string_view> f;
  f.api_version = api_version;
  f.method = method;
  f.tenant = tenant;
  f.payload = payload;
  f.request_id = request_id;
  f.auth_token = auth_token;
  EncodeFrame(f, out);
}

Status RequestEnvelope::DecodeFrom(std::string_view bytes) {
  RequestEnvelopeView view;
  BB_RETURN_IF_ERROR(view.DecodeFrom(bytes));
  api_version = view.api_version;
  method = view.method;
  tenant.assign(view.tenant);
  payload.assign(view.payload);
  request_id = view.request_id;
  auth_token.assign(view.auth_token);
  return Status::OK();
}

Status RequestEnvelopeView::DecodeFrom(std::string_view bytes) {
  RequestFrame<std::string_view> f;
  BB_RETURN_IF_ERROR(DecodeFrame(bytes, &f));
  api_version = f.api_version;
  method = f.method;
  tenant = f.tenant;
  payload = f.payload;
  request_id = f.request_id;
  auth_token = f.auth_token;
  return Status::OK();
}

void ResponseEnvelope::EncodeTo(std::string* out) const {
  ResponseFrame<std::string_view> f;
  f.api_version = api_version;
  f.code = static_cast<uint32_t>(status.code());
  f.message = status.message();
  f.retry_after_us = retry_after_us;
  f.payload = payload;
  f.request_id = request_id;
  EncodeFrame(f, out);
}

Status ResponseEnvelope::DecodeFrom(std::string_view bytes) {
  ResponseFrame<std::string_view> f;
  BB_RETURN_IF_ERROR(DecodeFrame(bytes, &f));
  if (f.code > static_cast<uint32_t>(Status::Code::kUnavailable)) {
    return Status::Corruption("unknown wire status code " +
                              std::to_string(f.code));
  }
  api_version = f.api_version;
  status = StatusFromWire(f.code, std::string(f.message));
  retry_after_us = f.retry_after_us;
  payload.assign(f.payload);
  request_id = f.request_id;
  return Status::OK();
}

// ---------------------------------------------------------------------
// Config payloads and messages: every codec is its field list.
// ---------------------------------------------------------------------

void EncodeTopicConfig(const TopicConfig& config, std::string* out) {
  EncodeFields(config, out);
}
Status DecodeTopicConfig(std::string_view bytes, TopicConfig* out) {
  return DecodeFields(bytes, out);
}
void EncodeTopicConfigPatch(const TopicConfigPatch& patch, std::string* out) {
  EncodeFields(patch, out);
}
Status DecodeTopicConfigPatch(std::string_view bytes, TopicConfigPatch* out) {
  return DecodeFields(bytes, out);
}

#define BB_WIRE_MESSAGE(T)                                               \
  void T::EncodeTo(std::string* out) const { EncodeFields(*this, out); } \
  Status T::DecodeFrom(std::string_view bytes) {                         \
    return DecodeFields(bytes, this);                                    \
  }

BB_WIRE_MESSAGE(CreateTopicRequest)
BB_WIRE_MESSAGE(CreateTopicResponse)
BB_WIRE_MESSAGE(UpdateTopicConfigRequest)
BB_WIRE_MESSAGE(UpdateTopicConfigResponse)
BB_WIRE_MESSAGE(DeleteTopicRequest)
BB_WIRE_MESSAGE(DeleteTopicResponse)
BB_WIRE_MESSAGE(ListTopicsRequest)
BB_WIRE_MESSAGE(ListTopicsResponse)
BB_WIRE_MESSAGE(IngestRequest)
BB_WIRE_MESSAGE(IngestResponse)
BB_WIRE_MESSAGE(IngestBatchRequest)
BB_WIRE_MESSAGE(IngestBatchRequestView)
BB_WIRE_MESSAGE(IngestBatchResponse)
BB_WIRE_MESSAGE(QueryRequest)
BB_WIRE_MESSAGE(QueryResponse)
BB_WIRE_MESSAGE(GetStatsRequest)
BB_WIRE_MESSAGE(GetStatsResponse)
BB_WIRE_MESSAGE(TrainNowRequest)
BB_WIRE_MESSAGE(TrainNowResponse)
BB_WIRE_MESSAGE(DetectAnomaliesRequest)
BB_WIRE_MESSAGE(DetectAnomaliesResponse)
BB_WIRE_MESSAGE(ReplPullRequest)
BB_WIRE_MESSAGE(ReplPullResponse)
BB_WIRE_MESSAGE(PromoteRequest)
BB_WIRE_MESSAGE(PromoteResponse)
BB_WIRE_MESSAGE(DemoteRequest)
BB_WIRE_MESSAGE(DemoteResponse)

#undef BB_WIRE_MESSAGE

}  // namespace api
}  // namespace bytebrain
