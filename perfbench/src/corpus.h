// Seeded input generation for the service benchmark.
//
// Every workload ingests the 16 synthetic LogHub datasets (datagen, with
// preambles and Zipfian template frequencies) shuffled into one stream.
// A workload asks for several streams (the set-up prefix, the closed-loop
// phase, the open-loop phase); each stream is cut into batches that are
// encoded into complete wire frames before any clock starts, so the load
// generator only copies bytes onto sockets.
//
// The template catalogue is fixed, as a recorded dataset such as LogHub
// is: each dataset is one generator run with a fixed salt. Stream 0, the
// set-up prefix the model is trained on, is the same in every run; the
// seed draws the later streams' records from the rest of the run (twice
// as many as they need) and their order. Two seeds therefore differ in
// the records they send (variable values, order, batch contents) but not
// in the shapes or the trained model, so a change between seeds is the
// machine's, not the catalogue's or the training sample's.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/messages.h"

namespace perfbench {

/// One pre-encoded IngestBatch request.
struct Batch {
  /// The complete frame: [u32 length LE][request envelope].
  std::string frame;
  /// Global id of the batch's first record; its records are
  /// [first, first + count).
  uint32_t first = 0;
  uint32_t count = 0;

  std::string_view envelope() const {
    return std::string_view(frame).substr(4);
  }
};

/// What one stream of a workload holds.
struct StreamSpec {
  size_t records = 0;
  size_t batch = 256;
};

/// All streams of one run. Records are numbered globally in stream order
/// (stream 0 first), and labels/timestamps are indexed by that number.
struct Inputs {
  std::vector<std::vector<Batch>> streams;
  /// Ground-truth template label per record (dataset, template).
  std::vector<uint64_t> labels;
  /// Timestamp per record: strictly increasing in record order.
  std::vector<uint64_t> timestamps;
  /// Dataset (AllDatasetSpecs index) per record.
  std::vector<uint8_t> datasets;
  /// Digest of every generated frame: two runs with equal digests sent
  /// identical bytes.
  uint64_t digest = 0;

  size_t stream_records(size_t s) const;
};

Inputs MakeInputs(uint64_t seed, const std::string& tenant,
                  const std::string& topic,
                  const std::vector<StreamSpec>& streams);

/// The record texts and timestamps of a batch, as views into its frame.
bytebrain::api::IngestBatchRequestView DecodeBatch(const Batch& batch);

/// Re-encodes a batch for another topic (same texts and timestamps).
std::string ReencodeBatch(const Batch& batch, const std::string& tenant,
                          const std::string& topic);

/// Wraps an envelope into a frame.
std::string Frame(std::string_view envelope);

}  // namespace perfbench
