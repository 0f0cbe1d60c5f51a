#include "api/messages.h"

#include "util/serde.h"

namespace bytebrain {
namespace api {

namespace {

Status Malformed(const char* what) {
  return Status::Corruption(std::string("truncated or malformed ") + what);
}

// Decode-loop helpers: every scalar field must carry exactly its fixed
// width; a mismatch is framing corruption, not a skippable field.
bool TakeU32(std::string_view payload, uint32_t* v) {
  return FieldReader::U32(payload, v);
}
bool TakeU64(std::string_view payload, uint64_t* v) {
  return FieldReader::U64(payload, v);
}
bool TakeDouble(std::string_view payload, double* v) {
  return FieldReader::Double(payload, v);
}
bool TakeBool(std::string_view payload, bool* v) {
  return FieldReader::Bool(payload, v);
}

}  // namespace

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
// Envelopes
// ---------------------------------------------------------------------

void RequestEnvelope::EncodeTo(std::string* out) const {
  ByteWriter(out).PutU32(api_version);
  FieldWriter w(out);
  w.PutU32(1, static_cast<uint32_t>(method));
  w.PutBytes(2, tenant);
  w.PutBytes(3, payload);
  if (request_id != 0) w.PutU64(4, request_id);
  if (!auth_token.empty()) w.PutBytes(5, auth_token);
}

Status RequestEnvelope::DecodeFrom(std::string_view bytes) {
  // One decode loop for both forms: parse as views, then materialize.
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
  // Reused structs decode cleanly: absent fields get defaults.
  *this = RequestEnvelopeView();
  ByteReader r(bytes);
  if (!r.GetU32(&api_version)) return Malformed("request envelope header");
  if (api_version == 0) {
    return Status::InvalidArgument("unsupported api version 0");
  }
  FieldReader fields(bytes.substr(4));
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1: {
        uint32_t m = 0;
        if (!TakeU32(p, &m)) return Malformed("request envelope method");
        method = static_cast<ApiMethod>(m);
        break;
      }
      case 2:
        tenant = p;
        break;
      case 3:
        payload = p;
        break;
      case 4:
        if (!TakeU64(p, &request_id)) {
          return Malformed("request envelope request id");
        }
        break;
      case 5:
        auth_token = p;
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("request envelope");
  return Status::OK();
}

void ResponseEnvelope::EncodeTo(std::string* out) const {
  ByteWriter(out).PutU32(api_version);
  FieldWriter w(out);
  w.PutU32(1, static_cast<uint32_t>(status.code()));
  w.PutBytes(2, status.message());
  w.PutU64(3, retry_after_us);
  w.PutBytes(4, payload);
  if (request_id != 0) w.PutU64(5, request_id);
}

Status ResponseEnvelope::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = ResponseEnvelope();
  ByteReader r(bytes);
  if (!r.GetU32(&api_version)) return Malformed("response envelope header");
  if (api_version == 0) {
    return Status::InvalidArgument("unsupported api version 0");
  }
  uint32_t code = 0;
  std::string message;
  FieldReader fields(bytes.substr(4));
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        if (!TakeU32(p, &code)) return Malformed("response envelope status");
        break;
      case 2:
        message.assign(p);
        break;
      case 3:
        if (!TakeU64(p, &retry_after_us)) {
          return Malformed("response envelope retry hint");
        }
        break;
      case 4:
        payload.assign(p);
        break;
      case 5:
        if (!TakeU64(p, &request_id)) {
          return Malformed("response envelope request id");
        }
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("response envelope");
  if (code > static_cast<uint32_t>(Status::Code::kUnavailable)) {
    return Status::Corruption("unknown wire status code " +
                              std::to_string(code));
  }
  status = StatusFromWire(code, std::move(message));
  return Status::OK();
}

// ---------------------------------------------------------------------
// Config payloads
// ---------------------------------------------------------------------

void EncodeTopicConfig(const TopicConfig& config, std::string* out) {
  FieldWriter w(out);
  w.PutU64(1, config.train_volume_bytes);
  w.PutU64(2, config.train_interval_records);
  w.PutU64(3, config.initial_train_records);
  w.PutU64(4, config.max_train_records);
  w.PutU32(5, static_cast<uint32_t>(config.num_threads));
  w.PutU32(6, static_cast<uint32_t>(config.num_ingest_shards));
  w.PutBool(7, config.async_training);
  w.PutBool(8, config.sync_initial_training);
  w.PutU32(9, static_cast<uint32_t>(config.storage.kind));
  w.PutBytes(10, config.storage.directory);
  w.PutU64(11, config.storage.segment_data_bytes);
  w.PutU64(12, config.storage.memory_segment_capacity);
  for (const auto& [name, pattern] : config.variable_rules) {
    const size_t rule = w.Begin(13);
    FieldWriter rw(out);
    rw.PutBytes(1, name);
    rw.PutBytes(2, pattern);
    w.End(rule);
  }
  w.PutU32(14, static_cast<uint32_t>(config.durability));
}

Status DecodeTopicConfig(std::string_view bytes, TopicConfig* out) {
  *out = TopicConfig();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    switch (tag) {
      case 1:
        if (!TakeU64(p, &out->train_volume_bytes)) goto malformed;
        break;
      case 2:
        if (!TakeU64(p, &out->train_interval_records)) goto malformed;
        break;
      case 3:
        if (!TakeU64(p, &out->initial_train_records)) goto malformed;
        break;
      case 4:
        if (!TakeU64(p, &out->max_train_records)) goto malformed;
        break;
      case 5:
        if (!TakeU32(p, &u32)) goto malformed;
        out->num_threads = static_cast<int>(u32);
        break;
      case 6:
        if (!TakeU32(p, &u32)) goto malformed;
        out->num_ingest_shards = static_cast<int>(u32);
        break;
      case 7:
        if (!TakeBool(p, &out->async_training)) goto malformed;
        break;
      case 8:
        if (!TakeBool(p, &out->sync_initial_training)) goto malformed;
        break;
      case 9:
        if (!TakeU32(p, &u32)) goto malformed;
        if (u32 > static_cast<uint32_t>(StorageConfig::Kind::kSegmentedDisk)) {
          return Status::InvalidArgument("unknown storage kind " +
                                         std::to_string(u32));
        }
        out->storage.kind = static_cast<StorageConfig::Kind>(u32);
        break;
      case 10:
        out->storage.directory.assign(p);
        break;
      case 11:
        if (!TakeU64(p, &out->storage.segment_data_bytes)) goto malformed;
        break;
      case 12:
        if (!TakeU64(p, &u64)) goto malformed;
        out->storage.memory_segment_capacity = static_cast<size_t>(u64);
        break;
      case 13: {
        std::string name, pattern;
        FieldReader rule(p);
        uint32_t rtag = 0;
        std::string_view rp;
        while (rule.Next(&rtag, &rp)) {
          if (rtag == 1) name.assign(rp);
          if (rtag == 2) pattern.assign(rp);
        }
        if (rule.error()) goto malformed;
        out->variable_rules.emplace_back(std::move(name), std::move(pattern));
        break;
      }
      case 14:
        if (!TakeU32(p, &u32)) goto malformed;
        if (u32 > static_cast<uint32_t>(DurabilityMode::kWalGroupCommit)) {
          return Status::InvalidArgument("unknown durability mode " +
                                         std::to_string(u32));
        }
        out->durability = static_cast<DurabilityMode>(u32);
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("TopicConfig");
}

void EncodeTopicConfigPatch(const TopicConfigPatch& patch, std::string* out) {
  FieldWriter w(out);
  if (patch.train_volume_bytes) w.PutU64(1, *patch.train_volume_bytes);
  if (patch.train_interval_records) {
    w.PutU64(2, *patch.train_interval_records);
  }
  if (patch.initial_train_records) w.PutU64(3, *patch.initial_train_records);
  if (patch.max_train_records) w.PutU64(4, *patch.max_train_records);
  if (patch.num_threads) {
    w.PutU32(5, static_cast<uint32_t>(*patch.num_threads));
  }
  if (patch.num_ingest_shards) {
    w.PutU32(6, static_cast<uint32_t>(*patch.num_ingest_shards));
  }
  if (patch.async_training) w.PutBool(7, *patch.async_training);
}

Status DecodeTopicConfigPatch(std::string_view bytes, TopicConfigPatch* out) {
  *out = TopicConfigPatch();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    bool b = false;
    switch (tag) {
      case 1:
        if (!TakeU64(p, &u64)) goto malformed;
        out->train_volume_bytes = u64;
        break;
      case 2:
        if (!TakeU64(p, &u64)) goto malformed;
        out->train_interval_records = u64;
        break;
      case 3:
        if (!TakeU64(p, &u64)) goto malformed;
        out->initial_train_records = u64;
        break;
      case 4:
        if (!TakeU64(p, &u64)) goto malformed;
        out->max_train_records = u64;
        break;
      case 5:
        if (!TakeU32(p, &u32)) goto malformed;
        out->num_threads = static_cast<int>(u32);
        break;
      case 6:
        if (!TakeU32(p, &u32)) goto malformed;
        out->num_ingest_shards = static_cast<int>(u32);
        break;
      case 7:
        if (!TakeBool(p, &b)) goto malformed;
        out->async_training = b;
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("TopicConfigPatch");
}

// ---------------------------------------------------------------------
// Topic lifecycle
// ---------------------------------------------------------------------

void CreateTopicRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, name);
  const size_t cfg = w.Begin(2);
  EncodeTopicConfig(config, out);
  w.End(cfg);
}

Status CreateTopicRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = CreateTopicRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        name.assign(p);
        break;
      case 2:
        BB_RETURN_IF_ERROR(DecodeTopicConfig(p, &config));
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("CreateTopicRequest");
  return Status::OK();
}

void CreateTopicResponse::EncodeTo(std::string*) const {}

Status CreateTopicResponse::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("CreateTopicResponse");
  return Status::OK();
}

void UpdateTopicConfigRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, name);
  const size_t body = w.Begin(2);
  EncodeTopicConfigPatch(patch, out);
  w.End(body);
}

Status UpdateTopicConfigRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = UpdateTopicConfigRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        name.assign(p);
        break;
      case 2:
        BB_RETURN_IF_ERROR(DecodeTopicConfigPatch(p, &patch));
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("UpdateTopicConfigRequest");
  return Status::OK();
}

void UpdateTopicConfigResponse::EncodeTo(std::string*) const {}

Status UpdateTopicConfigResponse::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("UpdateTopicConfigResponse");
  return Status::OK();
}

void DeleteTopicRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, name);
  w.PutBool(2, purge_storage);
}

Status DeleteTopicRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = DeleteTopicRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        name.assign(p);
        break;
      case 2:
        if (!TakeBool(p, &purge_storage)) {
          return Malformed("DeleteTopicRequest");
        }
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("DeleteTopicRequest");
  return Status::OK();
}

void DeleteTopicResponse::EncodeTo(std::string*) const {}

Status DeleteTopicResponse::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("DeleteTopicResponse");
  return Status::OK();
}

void ListTopicsRequest::EncodeTo(std::string*) const {}

Status ListTopicsRequest::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("ListTopicsRequest");
  return Status::OK();
}

void ListTopicsResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  for (const std::string& name : names) w.PutBytes(1, name);
}

Status ListTopicsResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = ListTopicsResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag == 1) names.emplace_back(p);
  }
  if (fields.error()) return Malformed("ListTopicsResponse");
  return Status::OK();
}

// ---------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------

void IngestRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
  w.PutBytes(2, text);
  w.PutU64(3, timestamp_us);
}

Status IngestRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = IngestRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        topic.assign(p);
        break;
      case 2:
        text.assign(p);
        break;
      case 3:
        if (!TakeU64(p, &timestamp_us)) return Malformed("IngestRequest");
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("IngestRequest");
  return Status::OK();
}

void IngestResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutU64(1, seq);
}

Status IngestResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = IngestResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag == 1 && !TakeU64(p, &seq)) return Malformed("IngestResponse");
  }
  if (fields.error()) return Malformed("IngestResponse");
  return Status::OK();
}

void IngestBatchRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
  for (const std::string& text : texts) w.PutBytes(2, text);
  if (!timestamps_us.empty()) w.PutU64Array(3, timestamps_us);
}

Status IngestBatchRequest::DecodeFrom(std::string_view bytes) {
  // One decode loop for both forms: parse as views, then materialize.
  IngestBatchRequestView view;
  BB_RETURN_IF_ERROR(view.DecodeFrom(bytes));
  topic.assign(view.topic);
  texts.assign(view.texts.begin(), view.texts.end());
  timestamps_us = std::move(view.timestamps_us);
  return Status::OK();
}

void IngestBatchRequestView::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
  for (std::string_view text : texts) w.PutBytes(2, text);
  if (!timestamps_us.empty()) w.PutU64Array(3, timestamps_us);
}

Status IngestBatchRequestView::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = IngestBatchRequestView();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        topic = p;
        break;
      case 2:
        texts.push_back(p);
        break;
      case 3:
        if (!FieldReader::U64Array(p, &timestamps_us)) {
          return Malformed("IngestBatchRequest timestamps");
        }
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("IngestBatchRequest");
  return Status::OK();
}

void IngestBatchResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutU64Array(1, seqs);
}

Status IngestBatchResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = IngestBatchResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag == 1 && !FieldReader::U64Array(p, &seqs)) {
      return Malformed("IngestBatchResponse");
    }
  }
  if (fields.error()) return Malformed("IngestBatchResponse");
  return Status::OK();
}

// ---------------------------------------------------------------------
// Query / stats / training / anomalies
// ---------------------------------------------------------------------

void QueryRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
  w.PutDouble(2, saturation_threshold);
  w.PutU64(3, begin_seq);
  w.PutU64(4, end_seq);
  w.PutU32(5, max_groups);
  w.PutBytes(6, cursor);
  w.PutBool(7, include_sequence_numbers);
  if (min_timestamp_us != 0) w.PutU64(8, min_timestamp_us);
  if (max_timestamp_us != UINT64_MAX) w.PutU64(9, max_timestamp_us);
}

Status QueryRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = QueryRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        topic.assign(p);
        break;
      case 2:
        if (!TakeDouble(p, &saturation_threshold)) goto malformed;
        break;
      case 3:
        if (!TakeU64(p, &begin_seq)) goto malformed;
        break;
      case 4:
        if (!TakeU64(p, &end_seq)) goto malformed;
        break;
      case 5:
        if (!TakeU32(p, &max_groups)) goto malformed;
        break;
      case 6:
        cursor.assign(p);
        break;
      case 7:
        if (!TakeBool(p, &include_sequence_numbers)) goto malformed;
        break;
      case 8:
        if (!TakeU64(p, &min_timestamp_us)) goto malformed;
        break;
      case 9:
        if (!TakeU64(p, &max_timestamp_us)) goto malformed;
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("QueryRequest");
}

namespace {

void EncodeGroup(const TemplateGroup& g, uint32_t tag, FieldWriter* w,
                 std::string* out) {
  const size_t body = w->Begin(tag);
  FieldWriter gw(out);
  gw.PutU64(1, g.template_id);
  gw.PutBytes(2, g.template_text);
  gw.PutDouble(3, g.saturation);
  gw.PutU64(4, g.count);
  if (!g.sequence_numbers.empty()) gw.PutU64Array(5, g.sequence_numbers);
  w->End(body);
}

Status DecodeGroup(std::string_view bytes, TemplateGroup* g) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        if (!TakeU64(p, &g->template_id)) goto malformed;
        break;
      case 2:
        g->template_text.assign(p);
        break;
      case 3:
        if (!TakeDouble(p, &g->saturation)) goto malformed;
        break;
      case 4:
        if (!TakeU64(p, &g->count)) goto malformed;
        break;
      case 5:
        if (!FieldReader::U64Array(p, &g->sequence_numbers)) goto malformed;
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("TemplateGroup");
}

}  // namespace

void QueryResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  for (const TemplateGroup& g : groups) EncodeGroup(g, 1, &w, out);
  w.PutBytes(2, next_cursor);
}

Status QueryResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = QueryResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1: {
        TemplateGroup g;
        BB_RETURN_IF_ERROR(DecodeGroup(p, &g));
        groups.push_back(std::move(g));
        break;
      }
      case 2:
        next_cursor.assign(p);
        break;
      default:
        break;
    }
  }
  if (fields.error()) return Malformed("QueryResponse");
  return Status::OK();
}

void GetStatsRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
}

Status GetStatsRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = GetStatsRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag == 1) topic.assign(p);
  }
  if (fields.error()) return Malformed("GetStatsRequest");
  return Status::OK();
}

void GetStatsResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutU64(1, stats.ingested_records);
  w.PutU64(2, stats.ingested_bytes);
  w.PutU64(3, stats.trainings);
  w.PutU64(4, stats.matched_online);
  w.PutU64(5, stats.adopted_templates);
  w.PutU64(6, stats.model_bytes);
  w.PutDouble(7, stats.last_training_seconds);
  w.PutU64(8, static_cast<uint64_t>(stats.num_templates));
  w.PutU64(9, stats.async_trainings);
  w.PutU64(10, stats.pending_trainings);
  w.PutU64(11, stats.coalesced_triggers);
  w.PutU64(12, stats.failed_trainings);
  w.PutDouble(13, stats.last_swap_seconds);
  w.PutU64(14, stats.shard_merges);
  w.PutBool(15, stats.storage_persistent);
  w.PutBool(16, stats.storage_ok);
  w.PutU64(17, stats.storage_sealed_segments);
  w.PutU64(18, stats.storage_mapped_bytes);
  w.PutU64(19, stats.recovered_records);
  w.PutU64(20, stats.last_snapshot_copied_records);
  w.PutU64(21, stats.last_snapshot_mapped_records);
  for (const ShardStats& s : stats.shards) {
    const size_t body = w.Begin(22);
    FieldWriter sw(out);
    sw.PutU64(1, s.records);
    sw.PutU64(2, s.bytes);
    sw.PutU64(3, s.matched_shared);
    sw.PutU64(4, s.matched_pending);
    sw.PutU64(5, s.adopted);
    sw.PutU64(6, s.merges);
    sw.PutU64(7, s.memo_hits);
    w.End(body);
  }
  w.PutU64(23, stats.wal_bytes);
  w.PutU64(24, stats.wal_group_commits);
  w.PutU64(25, stats.wal_fsyncs);
  w.PutU64(26, stats.wal_replayed_records);
  {
    const size_t body = w.Begin(27);
    FieldWriter tw(out);
    tw.PutU64(1, tenant.admitted_requests);
    tw.PutU64(2, tenant.denied_requests);
    tw.PutU64(3, tenant.admitted_bytes);
    tw.PutU64(4, tenant.denied_bytes);
    tw.PutU64(5, tenant.admitted_records);
    tw.PutU64(6, tenant.denied_records);
    w.End(body);
  }
  w.PutU64(28, stats.storage_cache_hits);
  w.PutU64(29, stats.storage_cache_misses);
  w.PutU64(30, stats.storage_cache_evictions);
  w.PutU64(31, stats.storage_index_rebuilds);
  w.PutU64(32, stats.storage_scan_record_visits);
  w.PutU64(33, stats.replication_lag_bytes);
  w.PutU64(34, stats.replication_lag_records);
  w.PutU64(35, stats.replication_lag_segments);
  w.PutU32(36, stats.replica_role);
  w.PutU32(37, stats.last_training_threads);
}

Status GetStatsResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = GetStatsResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    uint64_t u64 = 0;
    switch (tag) {
      case 1:
        if (!TakeU64(p, &stats.ingested_records)) goto malformed;
        break;
      case 2:
        if (!TakeU64(p, &stats.ingested_bytes)) goto malformed;
        break;
      case 3:
        if (!TakeU64(p, &stats.trainings)) goto malformed;
        break;
      case 4:
        if (!TakeU64(p, &stats.matched_online)) goto malformed;
        break;
      case 5:
        if (!TakeU64(p, &stats.adopted_templates)) goto malformed;
        break;
      case 6:
        if (!TakeU64(p, &stats.model_bytes)) goto malformed;
        break;
      case 7:
        if (!TakeDouble(p, &stats.last_training_seconds)) goto malformed;
        break;
      case 8:
        if (!TakeU64(p, &u64)) goto malformed;
        stats.num_templates = static_cast<size_t>(u64);
        break;
      case 9:
        if (!TakeU64(p, &stats.async_trainings)) goto malformed;
        break;
      case 10:
        if (!TakeU64(p, &stats.pending_trainings)) goto malformed;
        break;
      case 11:
        if (!TakeU64(p, &stats.coalesced_triggers)) goto malformed;
        break;
      case 12:
        if (!TakeU64(p, &stats.failed_trainings)) goto malformed;
        break;
      case 13:
        if (!TakeDouble(p, &stats.last_swap_seconds)) goto malformed;
        break;
      case 14:
        if (!TakeU64(p, &stats.shard_merges)) goto malformed;
        break;
      case 15:
        if (!TakeBool(p, &stats.storage_persistent)) goto malformed;
        break;
      case 16:
        if (!TakeBool(p, &stats.storage_ok)) goto malformed;
        break;
      case 17:
        if (!TakeU64(p, &stats.storage_sealed_segments)) goto malformed;
        break;
      case 18:
        if (!TakeU64(p, &stats.storage_mapped_bytes)) goto malformed;
        break;
      case 19:
        if (!TakeU64(p, &stats.recovered_records)) goto malformed;
        break;
      case 20:
        if (!TakeU64(p, &stats.last_snapshot_copied_records)) goto malformed;
        break;
      case 21:
        if (!TakeU64(p, &stats.last_snapshot_mapped_records)) goto malformed;
        break;
      case 22: {
        ShardStats s;
        FieldReader sr(p);
        uint32_t stag = 0;
        std::string_view sp;
        while (sr.Next(&stag, &sp)) {
          switch (stag) {
            case 1:
              if (!TakeU64(sp, &s.records)) goto malformed;
              break;
            case 2:
              if (!TakeU64(sp, &s.bytes)) goto malformed;
              break;
            case 3:
              if (!TakeU64(sp, &s.matched_shared)) goto malformed;
              break;
            case 4:
              if (!TakeU64(sp, &s.matched_pending)) goto malformed;
              break;
            case 5:
              if (!TakeU64(sp, &s.adopted)) goto malformed;
              break;
            case 6:
              if (!TakeU64(sp, &s.merges)) goto malformed;
              break;
            case 7:
              if (!TakeU64(sp, &s.memo_hits)) goto malformed;
              break;
            default:
              break;
          }
        }
        if (sr.error()) goto malformed;
        stats.shards.push_back(s);
        break;
      }
      case 23:
        if (!TakeU64(p, &stats.wal_bytes)) goto malformed;
        break;
      case 24:
        if (!TakeU64(p, &stats.wal_group_commits)) goto malformed;
        break;
      case 25:
        if (!TakeU64(p, &stats.wal_fsyncs)) goto malformed;
        break;
      case 26:
        if (!TakeU64(p, &stats.wal_replayed_records)) goto malformed;
        break;
      case 28:
        if (!TakeU64(p, &stats.storage_cache_hits)) goto malformed;
        break;
      case 29:
        if (!TakeU64(p, &stats.storage_cache_misses)) goto malformed;
        break;
      case 30:
        if (!TakeU64(p, &stats.storage_cache_evictions)) goto malformed;
        break;
      case 31:
        if (!TakeU64(p, &stats.storage_index_rebuilds)) goto malformed;
        break;
      case 32:
        if (!TakeU64(p, &stats.storage_scan_record_visits)) goto malformed;
        break;
      case 33:
        if (!TakeU64(p, &stats.replication_lag_bytes)) goto malformed;
        break;
      case 34:
        if (!TakeU64(p, &stats.replication_lag_records)) goto malformed;
        break;
      case 35:
        if (!TakeU64(p, &stats.replication_lag_segments)) goto malformed;
        break;
      case 36:
        if (!TakeU32(p, &stats.replica_role)) goto malformed;
        break;
      case 37:
        if (!TakeU32(p, &stats.last_training_threads)) goto malformed;
        break;
      case 27: {
        FieldReader tr(p);
        uint32_t ttag = 0;
        std::string_view tp;
        while (tr.Next(&ttag, &tp)) {
          switch (ttag) {
            case 1:
              if (!TakeU64(tp, &tenant.admitted_requests)) goto malformed;
              break;
            case 2:
              if (!TakeU64(tp, &tenant.denied_requests)) goto malformed;
              break;
            case 3:
              if (!TakeU64(tp, &tenant.admitted_bytes)) goto malformed;
              break;
            case 4:
              if (!TakeU64(tp, &tenant.denied_bytes)) goto malformed;
              break;
            case 5:
              if (!TakeU64(tp, &tenant.admitted_records)) goto malformed;
              break;
            case 6:
              if (!TakeU64(tp, &tenant.denied_records)) goto malformed;
              break;
            default:
              break;
          }
        }
        if (tr.error()) goto malformed;
        break;
      }
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("GetStatsResponse");
}

void TrainNowRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
}

Status TrainNowRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = TrainNowRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag == 1) topic.assign(p);
  }
  if (fields.error()) return Malformed("TrainNowRequest");
  return Status::OK();
}

void TrainNowResponse::EncodeTo(std::string*) const {}

Status TrainNowResponse::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("TrainNowResponse");
  return Status::OK();
}

void DetectAnomaliesRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
  w.PutU64(2, window1_begin);
  w.PutU64(3, window1_end);
  w.PutU64(4, window2_begin);
  w.PutU64(5, window2_end);
  w.PutDouble(6, min_change_ratio);
}

Status DetectAnomaliesRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = DetectAnomaliesRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        topic.assign(p);
        break;
      case 2:
        if (!TakeU64(p, &window1_begin)) goto malformed;
        break;
      case 3:
        if (!TakeU64(p, &window1_end)) goto malformed;
        break;
      case 4:
        if (!TakeU64(p, &window2_begin)) goto malformed;
        break;
      case 5:
        if (!TakeU64(p, &window2_end)) goto malformed;
        break;
      case 6:
        if (!TakeDouble(p, &min_change_ratio)) goto malformed;
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("DetectAnomaliesRequest");
}

void DetectAnomaliesResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  for (const TemplateAnomaly& a : anomalies) {
    const size_t body = w.Begin(1);
    FieldWriter aw(out);
    aw.PutU64(1, a.template_id);
    aw.PutBytes(2, a.template_text);
    aw.PutU64(3, a.count_before);
    aw.PutU64(4, a.count_after);
    aw.PutBool(5, a.is_new);
    aw.PutDouble(6, a.change_ratio);
    w.End(body);
  }
}

Status DetectAnomaliesResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = DetectAnomaliesResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag != 1) continue;
    TemplateAnomaly a;
    FieldReader ar(p);
    uint32_t atag = 0;
    std::string_view ap;
    while (ar.Next(&atag, &ap)) {
      switch (atag) {
        case 1:
          if (!TakeU64(ap, &a.template_id)) goto malformed;
          break;
        case 2:
          a.template_text.assign(ap);
          break;
        case 3:
          if (!TakeU64(ap, &a.count_before)) goto malformed;
          break;
        case 4:
          if (!TakeU64(ap, &a.count_after)) goto malformed;
          break;
        case 5:
          if (!TakeBool(ap, &a.is_new)) goto malformed;
          break;
        case 6:
          if (!TakeDouble(ap, &a.change_ratio)) goto malformed;
          break;
        default:
          break;
      }
    }
    if (ar.error()) goto malformed;
    anomalies.push_back(std::move(a));
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("DetectAnomaliesResponse");
}

// ---------------------------------------------------------------------
// Replication (v2)
// ---------------------------------------------------------------------

void ReplPullRequest::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutBytes(1, topic);
  w.PutU64(2, segment_index);
  w.PutU64(3, offset);
  w.PutU64(4, max_bytes);
  w.PutU64(5, model_generation);
  w.PutBool(6, want_config);
}

Status ReplPullRequest::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = ReplPullRequest();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        topic.assign(p);
        break;
      case 2:
        if (!TakeU64(p, &segment_index)) goto malformed;
        break;
      case 3:
        if (!TakeU64(p, &offset)) goto malformed;
        break;
      case 4:
        if (!TakeU64(p, &max_bytes)) goto malformed;
        break;
      case 5:
        if (!TakeU64(p, &model_generation)) goto malformed;
        break;
      case 6:
        if (!TakeBool(p, &want_config)) goto malformed;
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("ReplPullRequest");
}

void ReplPullResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  for (const std::string& name : topics) w.PutBytes(1, name);
  w.PutU64(2, segment_index);
  w.PutU64(3, offset);
  w.PutBytes(4, data);
  w.PutBool(5, segment_sealed);
  w.PutU64(6, segment_records);
  w.PutU64(7, segment_checksum);
  w.PutU64(8, segment_data_len);
  w.PutU64(9, source_records);
  w.PutU64(10, source_segments);
  w.PutU64(11, source_bytes);
  w.PutBool(12, has_config);
  if (has_config) {
    const size_t cfg = w.Begin(13);
    EncodeTopicConfig(config, out);
    w.End(cfg);
  }
  w.PutBool(14, has_model);
  if (has_model) w.PutBytes(15, model_blob);
  w.PutU64(16, model_generation);
}

Status ReplPullResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = ReplPullResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    switch (tag) {
      case 1:
        topics.emplace_back(p);
        break;
      case 2:
        if (!TakeU64(p, &segment_index)) goto malformed;
        break;
      case 3:
        if (!TakeU64(p, &offset)) goto malformed;
        break;
      case 4:
        data.assign(p);
        break;
      case 5:
        if (!TakeBool(p, &segment_sealed)) goto malformed;
        break;
      case 6:
        if (!TakeU64(p, &segment_records)) goto malformed;
        break;
      case 7:
        if (!TakeU64(p, &segment_checksum)) goto malformed;
        break;
      case 8:
        if (!TakeU64(p, &segment_data_len)) goto malformed;
        break;
      case 9:
        if (!TakeU64(p, &source_records)) goto malformed;
        break;
      case 10:
        if (!TakeU64(p, &source_segments)) goto malformed;
        break;
      case 11:
        if (!TakeU64(p, &source_bytes)) goto malformed;
        break;
      case 12:
        if (!TakeBool(p, &has_config)) goto malformed;
        break;
      case 13:
        BB_RETURN_IF_ERROR(DecodeTopicConfig(p, &config));
        break;
      case 14:
        if (!TakeBool(p, &has_model)) goto malformed;
        break;
      case 15:
        model_blob.assign(p);
        break;
      case 16:
        if (!TakeU64(p, &model_generation)) goto malformed;
        break;
      default:
        break;
    }
  }
  if (fields.error()) goto malformed;
  return Status::OK();
malformed:
  return Malformed("ReplPullResponse");
}

void PromoteRequest::EncodeTo(std::string*) const {}

Status PromoteRequest::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("PromoteRequest");
  return Status::OK();
}

void PromoteResponse::EncodeTo(std::string* out) const {
  FieldWriter w(out);
  w.PutU64(1, sealed_topics);
}

Status PromoteResponse::DecodeFrom(std::string_view bytes) {
  // Reused structs decode cleanly: absent fields get defaults.
  *this = PromoteResponse();
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
    if (tag == 1 && !TakeU64(p, &sealed_topics)) {
      return Malformed("PromoteResponse");
    }
  }
  if (fields.error()) return Malformed("PromoteResponse");
  return Status::OK();
}

void DemoteRequest::EncodeTo(std::string*) const {}

Status DemoteRequest::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("DemoteRequest");
  return Status::OK();
}

void DemoteResponse::EncodeTo(std::string*) const {}

Status DemoteResponse::DecodeFrom(std::string_view bytes) {
  FieldReader fields(bytes);
  uint32_t tag = 0;
  std::string_view p;
  while (fields.Next(&tag, &p)) {
  }
  if (fields.error()) return Malformed("DemoteResponse");
  return Status::OK();
}

}  // namespace api
}  // namespace bytebrain
