#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "datagen/generator.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace perfbench {

using bytebrain::AllDatasetSpecs;
using bytebrain::DatasetGenerator;
using bytebrain::GenOptions;
using bytebrain::HashBytesFast;
using bytebrain::HashCombine;
using bytebrain::Rng;

namespace {

constexpr uint64_t kFirstTimestampUs = 1'000'000;
/// GenOptions::seed_salt of every dataset: the fixed template catalogue.
constexpr uint64_t kCatalogueSalt = 0x5eed;

struct Log {
  std::string text;
  uint64_t label = 0;
  uint8_t dataset = 0;
};

size_t Quota(size_t records, size_t datasets, size_t d) {
  return records / datasets + (d < records % datasets ? 1 : 0);
}

std::vector<Log> Generate(size_t d, uint64_t salt, size_t n) {
  const auto& spec = AllDatasetSpecs()[d];
  GenOptions options;
  options.num_logs = n;
  options.num_templates = spec.loghub_templates;
  options.include_preamble = true;
  options.seed_salt = salt;
  bytebrain::Dataset ds = DatasetGenerator(spec).Generate(options);
  std::vector<Log> out;
  out.reserve(ds.logs.size());
  for (auto& l : ds.logs) {
    out.push_back({std::move(l.text),
                   HashCombine(HashCombine(d + 1, salt), l.gt_template + 1),
                   static_cast<uint8_t>(d)});
  }
  return out;
}

}  // namespace

size_t Inputs::stream_records(size_t s) const {
  size_t n = 0;
  for (const Batch& b : streams[s]) n += b.count;
  return n;
}

std::string Frame(std::string_view envelope) {
  std::string frame;
  frame.reserve(envelope.size() + 4);
  const uint32_t len = static_cast<uint32_t>(envelope.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  frame.append(envelope);
  return frame;
}

Inputs MakeInputs(uint64_t seed, const std::string& tenant,
                  const std::string& topic,
                  const std::vector<StreamSpec>& streams) {
  const size_t datasets = AllDatasetSpecs().size();

  // One generator run per dataset covers every stream, so the streams
  // share one template set and never repeat a record. Stream 0, the
  // set-up prefix, is the run's first records in every run. The seed
  // picks the records of the later streams: a partial shuffle moves a
  // random half of the rest of the run up behind the prefix.
  std::vector<std::vector<Log>> logs(datasets);
  std::vector<size_t> next(datasets, 0);
  for (size_t d = 0; d < datasets; ++d) {
    const size_t prefix = Quota(streams[0].records, datasets, d);
    size_t n = 0;
    for (const StreamSpec& s : streams) n += Quota(s.records, datasets, d);
    if (n == 0) continue;
    logs[d] = Generate(d, kCatalogueSalt, prefix + 2 * (n - prefix));
    Rng rng(HashCombine(seed, d));
    for (size_t i = prefix; i < n; ++i) {
      std::swap(logs[d][i], logs[d][i + rng.NextBelow(logs[d].size() - i)]);
    }
  }

  Inputs in;
  in.streams.resize(streams.size());
  for (size_t si = 0; si < streams.size(); ++si) {
    const StreamSpec& spec = streams[si];
    std::vector<Log> pool;
    pool.reserve(spec.records);
    for (size_t d = 0; d < datasets; ++d) {
      const size_t n = Quota(spec.records, datasets, d);
      for (size_t i = 0; i < n; ++i) {
        pool.push_back(std::move(logs[d][next[d]++]));
      }
    }
    Rng rng(HashCombine(si == 0 ? 0 : seed, 1000 + si));
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.NextBelow(i)]);
    }

    const uint32_t first = static_cast<uint32_t>(in.labels.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      in.labels.push_back(pool[i].label);
      in.timestamps.push_back(kFirstTimestampUs + first + i);
      in.datasets.push_back(pool[i].dataset);
    }
    for (size_t b = 0; b < pool.size(); b += spec.batch) {
      const size_t end = std::min(pool.size(), b + spec.batch);
      bytebrain::api::IngestBatchRequestView view;
      view.topic = topic;
      for (size_t i = b; i < end; ++i) {
        view.texts.push_back(pool[i].text);
        view.timestamps_us.push_back(in.timestamps[first + i]);
      }
      Batch batch;
      batch.frame = Frame(bytebrain::api::EncodeRequest(
          bytebrain::api::ApiMethod::kIngestBatch, tenant, view));
      batch.first = static_cast<uint32_t>(first + b);
      batch.count = static_cast<uint32_t>(end - b);
      in.digest = HashCombine(in.digest, HashBytesFast(batch.frame));
      in.streams[si].push_back(std::move(batch));
    }
  }
  return in;
}

bytebrain::api::IngestBatchRequestView DecodeBatch(const Batch& batch) {
  bytebrain::api::RequestEnvelopeView env;
  bytebrain::api::IngestBatchRequestView view;
  if (!env.DecodeFrom(batch.envelope()).ok() ||
      !view.DecodeFrom(env.payload).ok()) {
    std::fprintf(stderr, "perfbench: cannot decode a generated batch\n");
    std::abort();
  }
  return view;
}

std::string ReencodeBatch(const Batch& batch, const std::string& tenant,
                          const std::string& topic) {
  bytebrain::api::IngestBatchRequestView view = DecodeBatch(batch);
  view.topic = topic;
  return Frame(bytebrain::api::EncodeRequest(
      bytebrain::api::ApiMethod::kIngestBatch, tenant, view));
}

}  // namespace perfbench
