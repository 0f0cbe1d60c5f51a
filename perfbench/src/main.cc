// service_bench — the bytebrain service benchmark.
//
//   service_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--trace-out <file>]
//
// Workloads: ingest_steady, query_under_ingest (see workload.cc and
// perfbench/interactions.json for why each exists).
//
// --trace 0 measures the end-to-end metrics: a timed set-up, the
// grouping accuracy of the set-up prefix, then one untraced pass with a
// timed set-up of a throwaway server after each round (setup_s is the
// median of all set-ups). --trace 1 makes an untraced and a traced pass on
// fresh servers, then the layer descent (descent.h) on the traced one,
// and reports the per-layer metrics plus the tracing overhead (traced
// minus untraced end-to-end values).
//
// Lines starting with '#' describe the run; the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exit
// codes: 0 all checks passed, 1 an output check failed (the JSON still
// says which values were measured), 2 bad arguments or a set-up failure,
// 3 an open-loop phase was invalid because the generator itself fell
// behind (no result is printed).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "descent.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

/// A /proc/self/status field in kB.
double ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return "[" + a + ", " + b + ", " + c + "]";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Wall time of a fixed single-thread integer loop: how fast this machine
/// ran at the start and end of the run, independent of the library, so a
/// reader can tell a slow run from a slow machine.
double CpuProbeMs() {
  const uint64_t t0 = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  // The volatile store keeps the loop from being folded away or moved
  // past the second clock read.
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

void WriteTrace(const std::string& path, const PassResult& pass,
                const DescentResult& descent) {
  std::ofstream out(path);
  for (const Span& s : pass.ingest_spans) {
    out << "{\"layer\":\"client.ingest\",\"id\":" << s.id
        << ",\"due\":" << s.due_ns << ",\"start\":" << s.sent_ns
        << ",\"end\":" << s.recv_ns << "}\n";
  }
  for (const Span& s : pass.query_spans) {
    out << "{\"layer\":\"client.query\",\"id\":" << s.id
        << ",\"due\":" << s.due_ns << ",\"start\":" << s.sent_ns
        << ",\"end\":" << s.recv_ns << "}\n";
  }
  for (const LayerSpan& s : descent.spans) {
    out << "{\"layer\":" << Quote(s.layer) << ",\"id\":" << s.id
        << ",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns << "}\n";
  }
}

int Run(const Args& args) {
  const auto spec = FindWorkload(args.workload, args.seconds);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);

  std::map<std::string, std::string> record;
  record["workload"] = Quote(spec->name);
  record["seed"] = std::to_string(args.seed);
  record["seconds"] = Num(args.seconds);
  record["trace"] = std::to_string(args.trace);
  record["nproc"] = std::to_string(std::thread::hardware_concurrency());
  record["loadavg_start"] = LoadAverage();
  record["cpu_probe_ms_start"] = Num(CpuProbeMs());
  record["build_type"] =
      Quote(std::string(PERFBENCH_BUILD_TYPE) + (PERFBENCH_LTO ? "+LTO" : ""));

  const uint64_t t_inputs = NowNs();
  const Inputs inputs = MakeInputs(args.seed, kTenant, kTopic, spec->Streams());
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(inputs.digest));
  record["input_digest"] = Quote(digest);
  record["input_records"] = std::to_string(inputs.labels.size());
  record["input_seconds"] =
      Num(static_cast<double>(NowNs() - t_inputs) / 1e9);
  const double rss_base_kb = ProcStatusKb("VmRSS");

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto metric = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto fold = [&](const PassResult& p, const char* label) {
    attempted += p.attempted;
    failed += p.failed;
    for (const auto& f : p.check_failures) failures.push_back(label + (": " + f));
    if (p.invalid) {
      std::fprintf(stderr, "%s pass invalid: %s\n", label,
                   p.invalid_reason.c_str());
    }
    record[std::string(label) + "_ack_samples"] = std::to_string(p.ack_samples);
    record[std::string(label) + "_ack_p90_p99_ms"] =
        "[" + Num(p.ingest_ack_p90_ms) + ", " + Num(p.ingest_ack_p99_ms) + "]";
    record[std::string(label) + "_query_p90_p99_ms"] =
        "[" + Num(p.query_p90_ms) + ", " + Num(p.query_p99_ms) + "]";
    record[std::string(label) + "_query_samples"] =
        std::to_string(p.query_samples);
    // Per kind: count-only, first sequence page, continuation.
    std::string kinds, pages;
    for (size_t k = 0; k < kQueryKinds; ++k) {
      kinds += (k ? ", " : "") + Num(p.query_kind_p50_ms[k]);
      pages += (k ? ", " : "") + std::to_string(p.query_kind_pages[k]);
    }
    record[std::string(label) + "_query_kind_p50_ms"] = "[" + kinds + "]";
    record[std::string(label) + "_query_kind_pages"] = "[" + pages + "]";
    record[std::string(label) + "_late_p50_us"] = Num(p.late_p50_us);
    record[std::string(label) + "_late_p99_us"] = Num(p.late_p99_us);
    record[std::string(label) + "_late_max_us"] = Num(p.late_max_us);
    record[std::string(label) + "_chains_checked"] =
        std::to_string(p.chains_checked);
    record[std::string(label) + "_count_only_checked"] =
        std::to_string(p.count_only_checked);
    std::string rates;
    for (double v : p.closed_rates) rates += (rates.empty() ? "" : ", ") + Num(v);
    record[std::string(label) + "_closed_rates"] = "[" + rates + "]";
    std::string retrains;
    for (double v : p.retrain_samples_s) {
      retrains += (retrains.empty() ? "" : ", ") + Num(v);
    }
    record[std::string(label) + "_retrain_samples_s"] = "[" + retrains + "]";
    record[std::string(label) + "_records"] =
        std::to_string(p.seq_records.size());
  };
  auto setup = [&](const std::string& dir, double* seconds)
      -> std::unique_ptr<Service> {
    auto service = std::make_unique<Service>(*spec, args.workdir + "/" + dir);
    const uint64_t t0 = NowNs();
    const bytebrain::Status s = SetUp(*spec, inputs, service.get());
    if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    ++attempted;
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return nullptr;
    }
    return service;
  };
  bool invalid = false;
  uint32_t loadgen_threads = 0;

  if (args.trace == 0) {
    std::vector<double> setups(1);
    std::unique_ptr<Service> service = setup("setup0", &setups[0]);
    if (!service) return 2;
    const auto ga = PrefixGroupingAccuracy(*spec, inputs, service.get());
    ++attempted;
    if (!ga.ok()) {
      ++failed;
      failures.push_back("grouping accuracy: " + ga.status().ToString());
    }
    // One more set-up after every round of the pass, each on a server of
    // its own that is torn down right after, so the samples spread over
    // the whole run.
    bool setup_failed = false;
    auto extra_setup = [&] {
      if (setup_failed) return;
      const std::string dir = "setup" + std::to_string(setups.size());
      double seconds = 0;
      setup_failed = setup(dir, &seconds) == nullptr;
      setups.push_back(seconds);
      std::filesystem::remove_all(args.workdir + "/" + dir, ec);
    };
    const PassResult pass = RunPass(*spec, inputs, service.get(), false,
                                    args.seed, extra_setup);
    if (setup_failed) return 2;
    fold(pass, "pass");
    invalid = pass.invalid;
    loadgen_threads = pass.loadgen_threads;
    const double peak_mb = (ProcStatusKb("VmHWM") - rss_base_kb) / 1024.0;
    service.reset();

    std::string samples;
    for (double v : setups) samples += (samples.empty() ? "" : ", ") + Num(v);
    record["setup_samples_s"] = "[" + samples + "]";
    record["failed_op_ratio"] =
        Num(attempted ? static_cast<double>(failed) / attempted : 0);
    metric("setup_s", Median(setups), "s");
    metric("ingest_logs_per_s", pass.ingest_logs_per_s, "logs/s");
    metric("ingest_ack_p50_ms", pass.ingest_ack_p50_ms, "ms");
    metric("query_p50_ms", pass.query_p50_ms, "ms");
    metric("retrain_s", pass.retrain_s, "s");
    metric("grouping_accuracy", ga.ok() ? ga.value() : 0, "ratio");
    metric("peak_rss_mb", peak_mb, "MB");
  } else {
    PassResult untraced;
    {
      auto service = setup("untraced", nullptr);
      if (!service) return 2;
      untraced = RunPass(*spec, inputs, service.get(), false, args.seed);
    }
    fold(untraced, "untraced");
    auto service = setup("traced", nullptr);
    if (!service) return 2;
    const PassResult traced =
        RunPass(*spec, inputs, service.get(), true, args.seed);
    fold(traced, "traced");
    const DescentResult descent = RunDescent(
        *spec, inputs, service.get(), traced, args.workdir + "/descent");
    service.reset();
    attempted += descent.attempted;
    failed += descent.failed;
    for (const auto& f : descent.check_failures) {
      failures.push_back("descent: " + f);
    }
    invalid = untraced.invalid || traced.invalid;
    // One more thread than the pass's connections: the stats sampler.
    loadgen_threads = traced.loadgen_threads + 1;
    record["failed_op_ratio"] =
        Num(attempted ? static_cast<double>(failed) / attempted : 0);
    for (const LayerMetric& m : descent.metrics) {
      metric(m.name, m.value, m.unit.c_str());
    }
    metric("tail.ingest_ack_p90_ms", traced.ingest_ack_p90_ms, "ms");
    metric("tail.ingest_ack_p99_ms", traced.ingest_ack_p99_ms, "ms");
    metric("tail.query_p90_ms", traced.query_p90_ms, "ms");
    metric("tail.query_p99_ms", traced.query_p99_ms, "ms");
    metric("loadgen.late_p99_us", traced.late_p99_us, "us");
    metric("trace.overhead_ingest_logs_per_s",
           traced.ingest_logs_per_s - untraced.ingest_logs_per_s, "logs/s");
    metric("trace.overhead_ingest_ack_p50_ms",
           traced.ingest_ack_p50_ms - untraced.ingest_ack_p50_ms, "ms");
    metric("trace.overhead_query_p50_ms",
           traced.query_p50_ms - untraced.query_p50_ms, "ms");
    metric("trace.overhead_retrain_s", traced.retrain_s - untraced.retrain_s,
           "s");
    if (!args.trace_out.empty()) WriteTrace(args.trace_out, traced, descent);
  }
  std::filesystem::remove_all(args.workdir, ec);

  record["loadgen_threads"] = std::to_string(loadgen_threads);
  record["loadavg_end"] = LoadAverage();
  record["cpu_probe_ms_end"] = Num(CpuProbeMs());
  record["attempted"] = std::to_string(attempted);
  record["failed"] = std::to_string(failed);
  std::string rec = "{";
  for (const auto& [k, v] : record) {
    rec += (rec.size() > 1 ? ", " : "") + Quote(k) + ": " + v;
  }
  std::printf("# record %s}\n", rec.c_str());
  for (const auto& [name, vu] : metrics) {
    std::printf("# %-34s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const std::string& f : failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  if (invalid) {
    std::fflush(stdout);
    std::fprintf(stderr, "open-loop phase invalid; no result reported\n");
    return 3;
  }
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + Quote(metrics[i].first) + ": {\"value\": " +
            Num(metrics[i].second.first) +
            ", \"unit\": " + Quote(metrics[i].second.second) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: service_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
