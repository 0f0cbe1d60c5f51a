// The workloads, the server they run against, and one measured pass
// over a set-up server.
//
// Every run stands up an api::ServiceFrontend behind a net::TcpServer
// in this process and drives it over loopback TCP from the load
// generator (loadgen.h). A pass is the same sequence for every
// workload, repeated for a fixed number of rounds with an equal share of
// the work each:
//   1. closed loop: a fixed number of records over `connections`
//      connections with kWindow batches in flight each;
//   2. open loop: ingest at a fixed offered rate for a fixed time, with
//      the query mix beside it (query_under_ingest) ...
//   3. ... or, for the other workload, the query mix alone afterwards;
//   4. once GetStats shows no training in flight, one wire TrainNow.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "corpus.h"
#include "net/tcp_server.h"
#include "sources.h"

namespace perfbench {

inline constexpr const char* kTenant = "acme";
inline constexpr const char* kTopic = "logs";
inline constexpr const char* kReplicationToken = "perfbench-peer";
/// A pass runs as this many rounds, each with an equal share of the
/// work, and each figure is the median over rounds (or pooled over
/// them): the machine's swings in speed then land in a few rounds, not
/// in a whole phase.
inline constexpr size_t kRounds = 8;
/// Records per IngestBatch after the set-up prefix (small, so per-request
/// net and api cost shows), and closed-loop batches in flight per
/// connection.
inline constexpr size_t kBatch = 256;
inline constexpr int kWindow = 4;

struct WorkloadSpec {
  std::string name;
  bytebrain::TopicConfig topic;
  /// FrontendConfig::segment_cache_budget_bytes (0 keeps the default).
  uint64_t cache_budget_bytes = 0;
  /// Stream 0, ingested in order over one connection at set-up: the
  /// training prefix, or the preloaded history.
  size_t prefix_records = 20000;
  int connections = 2;
  /// Records of the closed-loop phase (stream 1).
  size_t closed_records = 0;
  /// Offered rate (records/s) and length of the open-loop phase
  /// (stream 2).
  double open_rate = 0;
  double open_seconds = 0;
  /// Streams 1 and 2 hold at most this many records and are cycled
  /// beyond it (0 = no cap).
  size_t stream_cap = 0;
  /// Query mix: first pages per second, and whether it runs beside the
  /// open-loop ingest or alone for `query_seconds` after it.
  double query_rate = 0;
  bool queries_beside_ingest = false;
  double query_seconds = 0;
  size_t min_window = 1000;
  size_t max_window = 10000;
  bool time_windows_span_history = false;
  uint32_t page_groups = 50;

  std::vector<StreamSpec> Streams() const;
};

/// The spec of `name` for a run of `seconds`; nullopt for unknown names.
std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         double seconds);

/// One server: frontend + TcpServer on an ephemeral loopback port.
class Service {
 public:
  Service(const WorkloadSpec& spec, const std::string& root);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  bytebrain::Status Start();
  bytebrain::api::ServiceFrontend* frontend() { return frontend_.get(); }
  bytebrain::net::TcpServer* tcp() { return tcp_.get(); }
  uint16_t port() const { return tcp_->port(); }
  /// The workload topic's typed handle (trusted surface).
  std::shared_ptr<bytebrain::ManagedTopic> Topic(const std::string& name);
  bytebrain::TopicStats Stats(const std::string& name = kTopic);
  const std::string& root() const { return root_; }

 private:
  std::string root_;
  std::unique_ptr<bytebrain::api::ServiceFrontend> frontend_;
  std::unique_ptr<bytebrain::net::TcpServer> tcp_;
};

/// Creates `topic` with the workload's config over the wire and ingests
/// stream 0 (its first `prefix_batches`; all when 0) in order over one
/// connection, then waits until the topic is trained with no training
/// in flight. Checks that the acked seqs are 0..n-1.
bytebrain::Status PrepareTopic(const WorkloadSpec& spec, const Inputs& inputs,
                               const std::string& topic, Service* service,
                               size_t prefix_batches = 0);

/// The timed set-up: server start plus PrepareTopic of the workload
/// topic with the whole of stream 0.
bytebrain::Status SetUp(const WorkloadSpec& spec, const Inputs& inputs,
                        Service* service);

/// Polls GetStats until no training is in flight.
bytebrain::Status WaitTrainingIdle(Service* service, const std::string& topic);

/// Strict grouping accuracy of the served groups at saturation 0.45 over
/// the set-up prefix, read over the wire.
bytebrain::Result<double> PrefixGroupingAccuracy(const WorkloadSpec& spec,
                                                 const Inputs& inputs,
                                                 Service* service);

struct PassResult {
  double ingest_logs_per_s = 0;
  std::vector<double> closed_rates;
  double ingest_ack_p50_ms = 0;
  double ingest_ack_p99_ms = 0;
  double query_p50_ms = 0;
  /// p50 of each QueryKind's page latencies, and its page count.
  double query_kind_p50_ms[kQueryKinds] = {};
  size_t query_kind_pages[kQueryKinds] = {};
  double query_p99_ms = 0;
  double ingest_ack_p90_ms = 0;
  double query_p90_ms = 0;
  double retrain_s = 0;
  size_t ack_samples = 0;
  size_t query_samples = 0;
  /// Mean open-loop ack latency from send (not from due), in us.
  double open_ack_from_send_us = 0;
  /// How late the generator noticed its open-loop requests, in us (the
  /// worse of the ingest and the query connections).
  double late_p50_us = 0;
  double late_p99_us = 0;
  double late_max_us = 0;
  bool invalid = false;
  std::string invalid_reason;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  uint64_t chains_checked = 0;
  uint64_t count_only_checked = 0;

  /// Record id of each seq, for the whole topic.
  std::vector<uint32_t> seq_records;
  /// Inputs the layer descent replays: open-loop batches in send order,
  /// and the queries as sent.
  std::vector<uint32_t> open_batches;
  std::vector<RecordedQuery> queries;
  std::vector<Span> ingest_spans;
  std::vector<Span> query_spans;

  /// Public stats around the pass: before it, after the ingest phases,
  /// and at the end.
  bytebrain::TopicStats stats_before, stats_ingested, stats_end;
  bytebrain::net::TcpServerStats tcp_before, tcp_ingested, tcp_end;
  /// Every TrainNow's wall time in order; the serialized model and record
  /// count the first one started from (traced passes only).
  std::vector<double> retrain_samples_s;
  std::string model_before_retrain;
  uint64_t first_retrain_records = 0;
  uint64_t ingest_batches = 0;
  uint32_t loadgen_threads = 0;
};

/// Runs one pass (rounds of phases 1-4) against a set-up server, calling
/// `after_round` (when set) after each round.
PassResult RunPass(const WorkloadSpec& spec, const Inputs& inputs,
                   Service* service, bool traced, uint64_t seed,
                   const std::function<void()>& after_round = {});

/// Percentile by linear interpolation (p in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

}  // namespace perfbench
