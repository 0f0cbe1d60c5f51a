// The two kinds of traffic the workloads offer: IngestBatch streams
// (closed or open loop) and the open-loop query mix. Both check every
// response they receive and keep what the post-run checks and the
// layer-descent replay need.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "corpus.h"
#include "loadgen.h"
#include "service/log_service.h"
#include "util/rng.h"

namespace perfbench {

/// One request-level span: the client's view of one round trip.
struct Span {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t recv_ns = 0;
  uint64_t id = 0;  // batch index (ingest) or query number
};

struct IngestPlan {
  const std::vector<Batch>* batches = nullptr;
  /// This connection sends batches first, first + stride, ... (modulo
  /// the stream, so a short stream is cycled).
  size_t first = 0;
  size_t stride = 1;
  /// Closed loop: send `count` batches keeping `window` in flight.
  /// Open loop (interval_ns > 0): send batch k at start_ns + k *
  /// interval_ns while that is before end_ns.
  size_t count = 0;
  int window = 1;
  uint64_t start_ns = 0;
  uint64_t interval_ns = 0;
  uint64_t end_ns = 0;
  bool trace = false;
};

class IngestSource : public Source {
 public:
  /// Reserves every per-request vector up front: growing a vector of a
  /// million acks mid-phase stalls the generator for milliseconds.
  explicit IngestSource(IngestPlan plan);

  bool Next(uint64_t now_ns, size_t inflight, Request* out,
            uint64_t* wake_ns) override;
  void OnResponse(const Request& req, std::string_view envelope,
                  uint64_t recv_ns) override;
  bool Exhausted(uint64_t now_ns) const override;

  /// (seq, global record id) of every acked record.
  std::vector<std::pair<uint64_t, uint32_t>> acks;
  /// Round-trip times from due and from send, in microseconds.
  std::vector<double> latency_us;
  std::vector<double> from_send_us;
  /// Stream batch indices in send order.
  std::vector<uint32_t> sent_batches;
  std::vector<Span> spans;
  uint64_t records_sent = 0;
  uint64_t records_acked = 0;
  uint64_t batches_failed = 0;
  uint64_t last_ack_ns = 0;
  std::vector<std::string> errors;

 private:
  size_t BatchAt(size_t k) const {
    return (plan_.first + k * plan_.stride) % plan_.batches->size();
  }
  IngestPlan plan_;
  size_t k_ = 0;
};

/// The query mix of the benchmark, half of each kind:
///  * count-only: all groups of a random sequence window at a threshold
///    drawn from (0, 1) — one page, answered from postings where sealed;
///  * sequence-collecting: a random time window, `page_groups` groups a
///    page with their sequence numbers, followed by cursor continuations
///    until the last page. A continuation is due when the page before it
///    arrives.
struct QueryPlan {
  std::string tenant;
  std::string topic;
  /// The records the queries read: [0, seq_timestamps.size()).
  const std::vector<uint64_t>* seq_timestamps = nullptr;
  /// Window sizes, in records.
  size_t min_window = 1000;
  size_t max_window = 10000;
  /// Sequence-collecting pages search the whole history for their time
  /// window (true: segment pruning picks cold segments) or only a
  /// sub-window around it.
  bool time_windows_span_history = false;
  uint32_t page_groups = 50;
  /// Open-loop arrivals of first pages.
  uint64_t start_ns = 0;
  uint64_t interval_ns = 0;
  uint64_t end_ns = 0;
  uint64_t seed = 1;
  bool record = false;
};

enum QueryKind : uint8_t { kCountOnly, kFirstPage, kContinuation, kQueryKinds };

/// A query as sent, with the equivalent ManagedTopic page request (what
/// Dispatch resolves it to), for the layer-descent replay.
struct RecordedQuery {
  std::string frame;
  bytebrain::QueryPageRequest page;
};

class QuerySource : public Source {
 public:
  explicit QuerySource(QueryPlan plan);

  bool Next(uint64_t now_ns, size_t inflight, Request* out,
            uint64_t* wake_ns) override;
  void OnResponse(const Request& req, std::string_view envelope,
                  uint64_t recv_ns) override;
  bool Exhausted(uint64_t now_ns) const override;

  /// Checks completed sequence-collecting chains against the window
  /// counts; appends a message per mismatch to `errors`.
  void CheckChains();

  /// Page latencies from due, in microseconds, and each page's kind
  /// (QueryKind).
  std::vector<double> latency_us;
  std::vector<uint8_t> kinds;
  std::vector<Span> spans;
  std::vector<RecordedQuery> recorded;
  uint64_t pages = 0;
  uint64_t failed = 0;
  uint64_t chains_checked = 0;
  uint64_t count_only_checked = 0;
  std::vector<std::string> errors;

 private:
  struct Chain {
    bytebrain::QueryPageRequest page;
    /// Groups received so far and the last one's resume key.
    uint64_t groups = 0;
    uint64_t last_count = 0;
    bytebrain::TemplateId last_id = bytebrain::kInvalidTemplateId;
    uint64_t counted = 0;
    uint64_t seqs = 0;
    uint32_t pages = 0;
    bool seqs_in_window = true;
    bool done = false;
    bool failed = false;
  };
  Request MakeRequest(uint64_t due_ns, size_t chain,
                      const std::string& cursor);

  QueryPlan plan_;
  bytebrain::Rng rng_;
  uint64_t arrivals_ = 0;
  std::vector<Chain> chains_;
  /// Continuations waiting to be sent: (due, chain, cursor).
  std::deque<std::tuple<uint64_t, size_t, std::string>> ready_;
};

}  // namespace perfbench
