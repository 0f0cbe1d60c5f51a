// Saturation score (paper §4.5, Eq. 3).
//
// Saturation measures how fully a group of logs is resolved into
// constants and variables; it controls when hierarchical clustering stops
// and is the precision knob exposed to queries.
//
//   s(C) = (f_v * p_c + (1 - p_c)) * f_c
//
//   f_c = m_c / m            proportion of constant positions
//   f_v = min_i f_v^(i)      variability of the least-variable unresolved
//                            position, f_v^(i) = log(n_u) / log(n)
//   p_c = 1 / (2^(m - m_c) - 1)   confidence factor
//
// plus the Fig.-5 Set-1 rule: a group whose single unresolved position is
// distinct in every log is fully resolved (s = 1) — the position is a
// confirmed variable.
//
// Interpretation note (documented in DESIGN.md): the paper's PDF renders
// the per-position scale ambiguously; f_v^(i) = log(n_u)/log(n) together
// with the Set-1 rule is the reading that reproduces ALL FIVE node labels
// in the paper's Fig. 5 (1.0 / 0.4 / 0.6 / 1.0 / 1.0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/preprocess.h"

namespace bytebrain {

/// Ablation switches for Fig. 8 / Fig. 9.
struct SaturationOptions {
  /// false -> s(C) = f_c ("w/o variable in saturation").
  bool use_variable_term = true;
  /// false -> s(C) = f_v * f_c ("w/o confidence factor").
  bool use_confidence_factor = true;
};

/// Per-group position statistics shared by saturation and the clusterer.
struct PositionStats {
  /// Distinct token count per position.
  std::vector<uint32_t> distinct;
  /// Number of member logs (distinct logs, post-dedup).
  uint32_t num_logs = 0;
  uint32_t num_positions = 0;
  uint32_t num_constant = 0;
  /// Positions confirmed as variables: in large groups (n >= 64), a
  /// position with at least 32 distinct tokens, distinct in at least half
  /// the logs, is resolved AS A VARIABLE — splitting on it "would not
  /// generate meaningful templates" (§4.5). Calibrated against the
  /// paper's Table 4, whose 0.9+-threshold templates keep
  /// high-cardinality fields (lock/uid/pid) wildcarded; without this rule
  /// the tree would refine them into literal constants. Small groups
  /// (n < 64) never confirm, preserving the Fig. 5 labels.
  uint32_t num_variable = 0;

  uint32_t num_resolved() const { return num_constant + num_variable; }
  bool fully_resolved() const { return num_resolved() == num_positions; }
  /// True if position i is neither constant nor a confirmed variable.
  bool unresolved(size_t i) const;
};

/// Flat open-addressing map from token hash to a dense id in order of
/// first insertion. Reset() is O(1) (slots carry a generation stamp), so
/// one table serves every position of every node a thread clusters
/// instead of a fresh hash set per position. Keys are remixed before
/// probing, so hashes that agree in their low bits do not cluster.
class TokenIdTable {
 public:
  /// Empties the table and sizes it for up to `max_keys` distinct keys.
  void Reset(size_t max_keys);

  /// Id of `key`: its index in first-insertion order (new keys get
  /// size()). At most the `max_keys` of the last Reset may be inserted.
  uint32_t Intern(uint64_t key) {
    size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = {key, size_, stamp_};
        return size_++;
      }
      if (slot.key == key) return slot.id;
      i = (i + 1) & mask_;
    }
  }

  /// Distinct keys interned since the last Reset.
  uint32_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t id = 0;
    uint32_t stamp = 0;  // occupied iff == stamp_
  };
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  uint32_t stamp_ = 0;
  uint32_t size_ = 0;
};

/// Distinct tokens at `position` across `members` (indices into `logs`),
/// counted with a per-thread TokenIdTable.
uint32_t CountDistinct(const std::vector<EncodedLog>& logs,
                       const std::vector<uint32_t>& members, size_t position);

/// Computes per-position distinct-token counts for `members` (indices into
/// `logs`); all members must share one token count.
PositionStats ComputePositionStats(const std::vector<EncodedLog>& logs,
                                   const std::vector<uint32_t>& members);

/// Sets num_constant and num_variable from `distinct` and `num_logs` —
/// the classification ComputePositionStats applies — for callers that
/// obtained the counts another way.
void ClassifyPositions(PositionStats* stats);

/// Saturation from precomputed stats. Groups with <= 1 member or no
/// unresolved positions score exactly 1.0.
double SaturationFromStats(const PositionStats& stats,
                           const SaturationOptions& options);

/// Convenience: stats + score in one call.
double ComputeSaturation(const std::vector<EncodedLog>& logs,
                         const std::vector<uint32_t>& members,
                         const SaturationOptions& options);

}  // namespace bytebrain
