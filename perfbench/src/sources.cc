#include "sources.h"

#include <algorithm>

#include "api/messages.h"

namespace perfbench {

namespace api = bytebrain::api;

namespace {

constexpr size_t kMaxErrors = 5;

void NoteError(std::vector<std::string>* errors, std::string message) {
  if (errors->size() < kMaxErrors) errors->push_back(std::move(message));
}

}  // namespace

// ------------------------------------------------------------- ingest

IngestSource::IngestSource(IngestPlan plan) : plan_(plan) {
  size_t batches = plan_.count;
  if (plan_.interval_ns > 0) {
    batches = (plan_.end_ns - plan_.start_ns) / plan_.interval_ns + 1;
  }
  size_t records = 0;
  for (size_t k = 0; k < batches; ++k) {
    records += (*plan_.batches)[BatchAt(k)].count;
  }
  acks.reserve(records);
  latency_us.reserve(batches);
  from_send_us.reserve(batches);
  sent_batches.reserve(batches);
  if (plan_.trace) spans.reserve(batches);
}

bool IngestSource::Next(uint64_t now_ns, size_t inflight, Request* out,
                        uint64_t* wake_ns) {
  uint64_t due = now_ns;
  if (plan_.interval_ns == 0) {
    if (k_ >= plan_.count || inflight >= static_cast<size_t>(plan_.window)) {
      return false;
    }
  } else {
    due = plan_.start_ns + k_ * plan_.interval_ns;
    if (due >= plan_.end_ns) return false;
    if (due > now_ns) {
      *wake_ns = std::min(*wake_ns, due);
      return false;
    }
  }
  const size_t b = BatchAt(k_++);
  const Batch& batch = (*plan_.batches)[b];
  out->due_ns = due;
  out->frame = batch.frame;
  out->tag = b;
  records_sent += batch.count;
  sent_batches.push_back(static_cast<uint32_t>(b));
  return true;
}

void IngestSource::OnResponse(const Request& req, std::string_view envelope,
                              uint64_t recv_ns) {
  const Batch& batch = (*plan_.batches)[req.tag];
  api::IngestBatchResponse resp;
  const bytebrain::Status s = api::DecodeResponse(envelope, &resp);
  if (!s.ok()) {
    ++batches_failed;
    NoteError(&errors, "IngestBatch failed: " + s.ToString());
    return;
  }
  if (resp.seqs.size() != batch.count) {
    ++batches_failed;
    NoteError(&errors, "IngestBatch acked " +
                           std::to_string(resp.seqs.size()) + " of " +
                           std::to_string(batch.count) + " records");
    return;
  }
  for (uint32_t i = 0; i < batch.count; ++i) {
    acks.emplace_back(resp.seqs[i], batch.first + i);
  }
  records_acked += batch.count;
  latency_us.push_back(static_cast<double>(recv_ns - req.due_ns) / 1e3);
  from_send_us.push_back(static_cast<double>(recv_ns - req.sent_ns) / 1e3);
  last_ack_ns = recv_ns;
  if (plan_.trace) spans.push_back({req.due_ns, req.sent_ns, recv_ns, req.tag});
}

bool IngestSource::Exhausted(uint64_t /*now_ns*/) const {
  if (plan_.interval_ns == 0) return k_ >= plan_.count;
  return plan_.start_ns + k_ * plan_.interval_ns >= plan_.end_ns;
}

// -------------------------------------------------------------- query

QuerySource::QuerySource(QueryPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

Request QuerySource::MakeRequest(uint64_t due_ns, size_t chain,
                                 const std::string& cursor) {
  const Chain& c = chains_[chain];
  api::QueryRequest req;
  req.topic = plan_.topic;
  req.saturation_threshold = c.page.saturation_threshold;
  req.begin_seq = c.page.begin_seq;
  req.end_seq = c.page.end_seq;
  req.max_groups = static_cast<uint32_t>(c.page.max_groups);
  req.include_sequence_numbers = c.page.collect_sequences;
  req.min_timestamp_us = c.page.min_timestamp_us;
  req.max_timestamp_us = c.page.max_timestamp_us;
  req.cursor = cursor;
  Request out;
  out.due_ns = due_ns;
  out.tag = chain;
  out.owned =
      Frame(api::EncodeRequest(api::ApiMethod::kQuery, plan_.tenant, req));
  if (plan_.record) {
    RecordedQuery rec;
    rec.frame = out.owned;
    rec.page = c.page;
    if (!cursor.empty()) {
      // What the frontend decodes the cursor into: the first page's
      // window plus the resume key of the last group received.
      rec.page.offset = c.groups;
      rec.page.has_resume_key = true;
      rec.page.resume_count = c.last_count;
      rec.page.resume_template_id = c.last_id;
    }
    recorded.push_back(std::move(rec));
  }
  return out;
}

bool QuerySource::Next(uint64_t now_ns, size_t /*inflight*/, Request* out,
                       uint64_t* wake_ns) {
  if (!ready_.empty()) {
    auto [due, chain, cursor] = std::move(ready_.front());
    ready_.pop_front();
    *out = MakeRequest(due, chain, cursor);
    out->frame = out->owned;
    return true;
  }
  const uint64_t due = plan_.start_ns + arrivals_ * plan_.interval_ns;
  if (due >= plan_.end_ns) return false;
  if (due > now_ns) {
    *wake_ns = std::min(*wake_ns, due);
    return false;
  }
  ++arrivals_;

  const std::vector<uint64_t>& ts = *plan_.seq_timestamps;
  const size_t history = ts.size();
  const size_t span = plan_.max_window - plan_.min_window + 1;
  const size_t len =
      std::min(history, plan_.min_window + rng_.NextBelow(span));
  const size_t begin = rng_.NextBelow(history - len + 1);
  Chain c;
  c.page.saturation_threshold = 0.05 + 0.9 * rng_.NextDouble();
  if (rng_.NextDouble() < 0.5) {
    c.page.begin_seq = begin;
    c.page.end_seq = begin + len;
    c.page.collect_sequences = false;
    c.page.max_groups = 0;
  } else {
    const auto [lo, hi] =
        std::minmax_element(ts.begin() + begin, ts.begin() + begin + len);
    c.page.min_timestamp_us = *lo;
    c.page.max_timestamp_us = *hi;
    c.page.begin_seq = plan_.time_windows_span_history ? 0 : begin;
    c.page.end_seq = plan_.time_windows_span_history ? history : begin + len;
    c.page.collect_sequences = true;
    c.page.max_groups = plan_.page_groups;
  }
  chains_.push_back(c);
  *out = MakeRequest(due, chains_.size() - 1, "");
  out->frame = out->owned;
  return true;
}

void QuerySource::OnResponse(const Request& req, std::string_view envelope,
                             uint64_t recv_ns) {
  ++pages;
  latency_us.push_back(static_cast<double>(recv_ns - req.due_ns) / 1e3);
  if (plan_.record) spans.push_back({req.due_ns, req.sent_ns, recv_ns, req.tag});
  Chain& c = chains_[req.tag];
  kinds.push_back(!c.page.collect_sequences ? kCountOnly
                  : c.pages == 0            ? kFirstPage
                                            : kContinuation);
  ++c.pages;
  api::QueryResponse resp;
  const bytebrain::Status s = api::DecodeResponse(envelope, &resp);
  if (!s.ok()) {
    ++failed;
    c.failed = true;
    c.done = true;
    NoteError(&errors, "Query failed: " + s.ToString());
    return;
  }
  if (!c.page.collect_sequences) {
    uint64_t sum = 0;
    for (const auto& g : resp.groups) sum += g.count;
    const uint64_t window = c.page.end_seq - c.page.begin_seq;
    if (sum != window) {
      NoteError(&errors, "count-only query at threshold " +
                             std::to_string(c.page.saturation_threshold) +
                             " counted " + std::to_string(sum) +
                             " records of a " + std::to_string(window) +
                             "-record window");
    }
    ++count_only_checked;
    c.done = true;
    return;
  }
  const std::vector<uint64_t>& ts = *plan_.seq_timestamps;
  for (const auto& g : resp.groups) {
    c.counted += g.count;
    c.seqs += g.sequence_numbers.size();
    for (uint64_t seq : g.sequence_numbers) {
      if (seq < c.page.begin_seq || seq >= c.page.end_seq ||
          ts[seq] < c.page.min_timestamp_us ||
          ts[seq] > c.page.max_timestamp_us) {
        c.seqs_in_window = false;
      }
    }
  }
  if (!resp.groups.empty()) {
    c.groups += resp.groups.size();
    c.last_count = resp.groups.back().count;
    c.last_id = resp.groups.back().template_id;
  }
  if (resp.next_cursor.empty()) {
    c.done = true;
  } else {
    ready_.emplace_back(recv_ns, req.tag, std::move(resp.next_cursor));
  }
}

bool QuerySource::Exhausted(uint64_t /*now_ns*/) const {
  return ready_.empty() &&
         plan_.start_ns + arrivals_ * plan_.interval_ns >= plan_.end_ns;
}

void QuerySource::CheckChains() {
  const std::vector<uint64_t>& ts = *plan_.seq_timestamps;
  for (const Chain& c : chains_) {
    if (!c.page.collect_sequences || !c.done || c.failed) continue;
    uint64_t expected = 0;
    for (uint64_t s = c.page.begin_seq; s < c.page.end_seq; ++s) {
      expected += ts[s] >= c.page.min_timestamp_us &&
                  ts[s] <= c.page.max_timestamp_us;
    }
    ++chains_checked;
    if (c.counted != expected || c.seqs != c.counted || !c.seqs_in_window) {
      NoteError(&errors,
                "time-window query over [" + std::to_string(c.page.begin_seq) +
                    ", " + std::to_string(c.page.end_seq) + ") counted " +
                    std::to_string(c.counted) + " records, listed " +
                    std::to_string(c.seqs) + ", expected " +
                    std::to_string(expected) +
                    (c.seqs_in_window ? "" : "; a listed seq is outside it"));
    }
  }
}

}  // namespace perfbench
