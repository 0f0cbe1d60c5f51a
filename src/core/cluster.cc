#include "core/cluster.h"

#include <algorithm>
#include <cmath>

namespace bytebrain {

namespace {

// Weight cap for positions that are constant within a cluster: the n = 2
// weight (1/(2-1) = 1) doubled, so fully-agreed positions dominate without
// the 1/(n-1) formula dividing by zero.
constexpr double kConstantPositionWeight = 2.0;

// Similarity values within this epsilon are treated as ties for balanced
// grouping (§4.6).
constexpr double kTieEpsilon = 1e-12;

}  // namespace

ClusterProfile::ClusterProfile(const std::vector<uint32_t>& active_positions,
                               const std::vector<EncodedLog>& logs)
    : active_(active_positions), logs_(logs), freq_(active_positions.size()) {}

void ClusterProfile::Add(uint32_t member) {
  const EncodedLog& log = logs_[member];
  for (size_t k = 0; k < active_.size(); ++k) {
    freq_[k][log.tokens[active_[k]]]++;
  }
  ++size_;
}

void ClusterProfile::Clear() {
  for (auto& f : freq_) f.clear();
  size_ = 0;
}

double ClusterProfile::Similarity(const EncodedLog& log,
                                  bool use_position_importance) const {
  if (size_ == 0 || active_.empty()) return 0.0;
  double weighted = 0.0;
  double total_weight = 0.0;
  for (size_t k = 0; k < active_.size(); ++k) {
    const auto& f = freq_[k];
    const auto it = f.find(log.tokens[active_[k]]);
    const double fi =
        it == f.end() ? 0.0
                      : static_cast<double>(it->second) / size_;
    double wi = 1.0;
    if (use_position_importance) {
      const size_t ni = f.size();
      wi = ni <= 1 ? kConstantPositionWeight
                   : 1.0 / static_cast<double>(ni - 1);
    }
    weighted += wi * fi;
    total_weight += wi;
  }
  return total_weight > 0.0 ? weighted / total_weight : 0.0;
}

namespace {

// Dense re-encoding of the members' tokens at the active positions:
// each (position, token) pair becomes one slot of a flat table, numbered
// position by position, so cluster profiles index arrays instead of
// hashing in the assignment inner loop. ClusterProfile (above) stays as
// the reference implementation exercised by the unit tests.
struct DenseView {
  // slots[i * num_positions + k] = table slot of members[i]'s token at
  // active position k; position k owns slots [offsets[k], offsets[k+1]).
  std::vector<uint32_t> slots;
  std::vector<uint32_t> offsets;
  size_t num_positions = 0;

  const uint32_t* row(size_t member_index) const {
    return &slots[member_index * num_positions];
  }
  uint32_t num_slots() const { return offsets.back(); }
};

DenseView BuildDenseView(const std::vector<EncodedLog>& logs,
                         const std::vector<uint32_t>& members,
                         const std::vector<uint32_t>& active) {
  DenseView view;
  view.num_positions = active.size();
  view.slots.resize(members.size() * active.size());
  view.offsets.resize(active.size() + 1, 0);
  thread_local TokenIdTable ids;
  for (size_t k = 0; k < active.size(); ++k) {
    ids.Reset(members.size());
    const uint32_t base = view.offsets[k];
    for (size_t i = 0; i < members.size(); ++i) {
      view.slots[i * active.size() + k] =
          base + ids.Intern(logs[members[i]].tokens[active[k]]);
    }
    view.offsets[k + 1] = base + ids.size();
  }
  return view;
}

// The cluster profiles of one clustering step over the dense view, all
// in one slot-major table: the clusters' entries for a slot are
// adjacent, so scoring a member against every cluster reads one short
// run per position and keeps one independent sum per cluster in flight.
// Finalize() turns the per-slot frequencies into Eq. 2 contributions
// w_k * f; the weights depend only on the profile, not on the log being
// scored, so they are computed once per profile change rather than once
// per (log, cluster, position). Every double is formed by the same
// expression, and summed in the same position order, as the per-call
// formula of ClusterProfile::Similarity.
class DenseClusters {
 public:
  explicit DenseClusters(const DenseView& view) : view_(view) {}

  // Empties every profile and sets how many there are.
  void Reset(uint32_t num_clusters) {
    stride_ = num_clusters;
    freq_.assign(size_t{view_.num_slots()} * stride_, 0);
    distinct_.assign(view_.num_positions * stride_, 0);
    sizes_.assign(stride_, 0);
    contribution_.resize(freq_.size());
    total_weight_.resize(stride_);
  }

  void Add(uint32_t c, size_t member_index) {
    const uint32_t* row = view_.row(member_index);
    for (size_t k = 0; k < view_.num_positions; ++k) {
      uint32_t& f = freq_[size_t{row[k]} * stride_ + c];
      if (f == 0) ++distinct_[k * stride_ + c];
      ++f;
    }
    ++sizes_[c];
  }

  // Recomputes the contributions; call after the Add()s and before
  // Similarities().
  void Finalize(bool use_position_importance) {
    inv_size_.resize(stride_);
    for (uint32_t c = 0; c < stride_; ++c) {
      inv_size_[c] =
          sizes_[c] == 0 ? 0.0 : 1.0 / static_cast<double>(sizes_[c]);
      total_weight_[c] = 0.0;
    }
    weight_.resize(stride_);
    for (size_t k = 0; k < view_.num_positions; ++k) {
      for (uint32_t c = 0; c < stride_; ++c) {
        double wi = 1.0;
        if (use_position_importance) {
          const uint32_t ni = distinct_[k * stride_ + c];
          wi = ni <= 1 ? kConstantPositionWeight
                       : 1.0 / static_cast<double>(ni - 1);
        }
        weight_[c] = wi;
        total_weight_[c] += wi;
      }
      for (uint32_t s = view_.offsets[k]; s < view_.offsets[k + 1]; ++s) {
        const size_t cell = size_t{s} * stride_;
        for (uint32_t c = 0; c < stride_; ++c) {
          const double fi =
              static_cast<double>(freq_[cell + c]) * inv_size_[c];
          contribution_[cell + c] = weight_[c] * fi;
        }
      }
    }
  }

  // sims[c] = Eq. 2 similarity of members[member_index] to cluster c
  // (0 for an empty cluster).
  void Similarities(size_t member_index, double* sims) const {
    const uint32_t* row = view_.row(member_index);
    std::fill(sims, sims + stride_, 0.0);
    for (size_t k = 0; k < view_.num_positions; ++k) {
      const double* cell = &contribution_[size_t{row[k]} * stride_];
      for (uint32_t c = 0; c < stride_; ++c) sims[c] += cell[c];
    }
    for (uint32_t c = 0; c < stride_; ++c) {
      sims[c] = sizes_[c] == 0 || total_weight_[c] <= 0.0
                    ? 0.0
                    : sims[c] / total_weight_[c];
    }
  }

  uint32_t size(uint32_t c) const { return sizes_[c]; }
  // Distinct tokens of cluster c at active position k.
  uint32_t distinct(uint32_t c, size_t k) const {
    return distinct_[k * stride_ + c];
  }

 private:
  const DenseView& view_;
  uint32_t stride_ = 0;  // number of clusters
  std::vector<uint32_t> freq_;
  std::vector<uint32_t> distinct_;
  std::vector<uint32_t> sizes_;
  std::vector<double> contribution_;
  std::vector<double> total_weight_;
  std::vector<double> inv_size_;  // Finalize() working space
  std::vector<double> weight_;    // Finalize() working space
};

// Stats of one cluster's members, read off its profile where possible:
// a position constant across the parent stays constant, an active
// position's count is the profile's, a position distinct in every
// parent member stays distinct in every member; only the parent's other
// confirmed-variable positions are recounted.
PositionStats ClusterStats(const std::vector<EncodedLog>& logs,
                           const std::vector<uint32_t>& group,
                           const PositionStats& parent,
                           const std::vector<uint32_t>& active,
                           const DenseClusters& clusters, uint32_t c) {
  PositionStats stats;
  stats.num_logs = static_cast<uint32_t>(group.size());
  stats.num_positions = parent.num_positions;
  stats.distinct.resize(parent.num_positions);
  size_t k = 0;
  for (uint32_t pos = 0; pos < parent.num_positions; ++pos) {
    if (k < active.size() && active[k] == pos) {
      stats.distinct[pos] = clusters.distinct(c, k++);
    } else if (parent.distinct[pos] == 1) {
      stats.distinct[pos] = 1;
    } else if (parent.distinct[pos] == parent.num_logs) {
      stats.distinct[pos] = stats.num_logs;
    } else {
      stats.distinct[pos] = CountDistinct(logs, group, pos);
    }
  }
  ClassifyPositions(&stats);
  return stats;
}

// Positions still unresolved across `members`: constants carry no signal
// and confirmed-variable positions must not drive splits (splitting on a
// variable's values produces meaningless templates, §4.5).
std::vector<uint32_t> ActivePositions(const PositionStats& stats) {
  std::vector<uint32_t> active;
  for (uint32_t i = 0; i < stats.num_positions; ++i) {
    if (stats.unresolved(i)) active.push_back(i);
  }
  return active;
}

// Early-stop checks (§4.7). Returns true and fills `outcome` when the
// decision is immediate.
bool TryEarlyStop(const std::vector<uint32_t>& members,
                  const PositionStats& stats, ClusterOutcome* outcome) {
  // (1) Few logs: each distinct log forms its own cluster.
  if (members.size() <= 2) {
    if (members.size() < 2) {
      outcome->split = false;
      return true;
    }
    outcome->split = true;
    outcome->clusters = {{members[0]}, {members[1]}};
    return true;
  }
  uint32_t unresolved = 0;
  bool all_unresolved_distinct = true;
  for (size_t i = 0; i < stats.distinct.size(); ++i) {
    if (!stats.unresolved(i)) continue;
    ++unresolved;
    if (stats.distinct[i] != stats.num_logs) all_unresolved_distinct = false;
  }
  // (2) Single unresolved position: splitting on one position cannot
  // produce a better template; the position is simply a variable.
  if (unresolved == 1) {
    outcome->split = false;
    return true;
  }
  // (3) Completely distinct unresolved positions: the logs are pairwise
  // dissimilar everywhere unresolved; each becomes its own cluster.
  if (unresolved >= 2 && all_unresolved_distinct) {
    outcome->split = true;
    outcome->clusters.reserve(members.size());
    for (uint32_t m : members) outcome->clusters.push_back({m});
    return true;
  }
  return false;
}

}  // namespace

ClusterOutcome SingleClusteringProcess(const std::vector<EncodedLog>& logs,
                                       const std::vector<uint32_t>& members,
                                       double parent_saturation,
                                       const ClusterOptions& options,
                                       Rng* rng) {
  return SingleClusteringProcess(logs, members,
                                 ComputePositionStats(logs, members),
                                 parent_saturation, options, rng);
}

ClusterOutcome SingleClusteringProcess(const std::vector<EncodedLog>& logs,
                                       const std::vector<uint32_t>& members,
                                       const PositionStats& parent_stats,
                                       double parent_saturation,
                                       const ClusterOptions& options,
                                       Rng* rng) {
  ClusterOutcome outcome;
  if (members.size() < 2) return outcome;  // nothing to split
  if (parent_stats.fully_resolved()) return outcome;  // saturated already

  if (options.early_stop && TryEarlyStop(members, parent_stats, &outcome)) {
    for (const auto& cluster : outcome.clusters) {
      outcome.stats.push_back(ComputePositionStats(logs, cluster));
    }
    return outcome;
  }

  const std::vector<uint32_t> active = ActivePositions(parent_stats);
  const DenseView view = BuildDenseView(logs, members, active);
  const bool importance = options.use_position_importance;
  std::vector<double> sims;

  // --- Seeding -------------------------------------------------------
  // First seed uniformly at random; second is the member farthest from
  // the first (K-Means++ principle), or random under the ablation.
  const size_t seed1 = rng->NextBelow(members.size());
  size_t seed2 = seed1;
  if (options.kmeanspp_seeding) {
    DenseClusters seed_profile(view);
    seed_profile.Reset(1);
    seed_profile.Add(0, seed1);
    seed_profile.Finalize(importance);
    double best = 2.0;  // similarity in [0,1]; pick the minimum
    for (size_t i = 0; i < members.size(); ++i) {
      if (i == seed1) continue;
      double sim;
      seed_profile.Similarities(i, &sim);
      if (sim < best) {
        best = sim;
        seed2 = i;
      }
    }
  } else {
    while (members.size() > 1 && seed2 == seed1) {
      seed2 = rng->NextBelow(members.size());
    }
  }

  // assignment[i]: cluster index of members[i].
  std::vector<uint32_t> assignment(members.size(), 0);
  uint32_t num_clusters = 2;
  DenseClusters profiles(view);
  profiles.Reset(num_clusters);
  profiles.Add(0, seed1);
  profiles.Add(1, seed2);
  profiles.Finalize(importance);

  // top_sim[i]: member i's highest similarity over the non-empty
  // clusters in the last assign_all(), which the expansion step needs
  // too while the profiles are still the ones that pass scored against.
  std::vector<double> top_sim(members.size());
  std::vector<uint32_t> tie_buffer;
  auto assign_all = [&]() -> bool {
    bool changed = false;
    sims.resize(num_clusters);
    for (size_t i = 0; i < members.size(); ++i) {
      profiles.Similarities(i, sims.data());
      double best = -1.0;
      double top = 0.0;
      tie_buffer.clear();
      for (uint32_t c = 0; c < num_clusters; ++c) {
        if (profiles.size(c) == 0) continue;
        const double sim = sims[c];
        top = std::max(top, sim);
        if (sim > best + kTieEpsilon) {
          best = sim;
          tie_buffer.clear();
          tie_buffer.push_back(c);
        } else if (sim >= best - kTieEpsilon) {
          tie_buffer.push_back(c);
        }
      }
      uint32_t chosen;
      if (tie_buffer.size() == 1 || !options.balanced_grouping) {
        chosen = tie_buffer.front();
      } else {
        // §4.6 balanced grouping: equidistant ties break uniformly at
        // random so no cluster systematically absorbs the overflow.
        chosen = tie_buffer[rng->NextBelow(tie_buffer.size())];
      }
      top_sim[i] = top;
      if (assignment[i] != chosen) {
        assignment[i] = chosen;
        changed = true;
      }
    }
    return changed;
  };

  auto rebuild_profiles = [&]() {
    profiles.Reset(num_clusters);
    for (size_t i = 0; i < members.size(); ++i) {
      profiles.Add(assignment[i], i);
    }
    profiles.Finalize(importance);
  };

  // groups[c]: the members of cluster c as of the last collect_groups().
  std::vector<std::vector<uint32_t>> groups;
  auto collect_groups = [&]() {
    groups.assign(num_clusters, {});
    for (size_t i = 0; i < members.size(); ++i) {
      groups[assignment[i]].push_back(members[i]);
    }
  };

  // --- Iterate: reassign, check saturation, expand -------------------
  const uint32_t max_clusters =
      static_cast<uint32_t>(std::min<size_t>(members.size(), 64));
  int iterations_left = options.max_iterations;
  assign_all();
  rebuild_profiles();
  while (true) {
    // Whether top_sim was scored against the current profiles.
    bool scored_current = false;
    for (int it = 0; it < 2 && iterations_left > 0; ++it, --iterations_left) {
      if (!assign_all()) {
        // Nothing moved, so the profiles already match the assignment.
        scored_current = true;
        break;
      }
      rebuild_profiles();
    }

    if (!options.ensure_saturation_increase) break;

    // Find a cluster whose saturation does not improve on the parent.
    collect_groups();
    bool all_improved = true;
    for (uint32_t c = 0; c < num_clusters && all_improved; ++c) {
      if (groups[c].empty()) continue;
      if (groups[c].size() == members.size()) {
        // Degenerate: everything collapsed into one cluster.
        all_improved = false;
        break;
      }
      const double s = SaturationFromStats(
          ClusterStats(logs, groups[c], parent_stats, active, profiles, c),
          options.saturation);
      if (s <= parent_saturation + 1e-12) all_improved = false;
    }
    if (all_improved) break;
    if (num_clusters >= max_clusters || iterations_left <= 0) break;

    // Expand: seed a new cluster with the member farthest from all
    // existing clusters (lowest best-similarity).
    double worst_best = 2.0;
    size_t farthest_idx = 0;
    sims.resize(num_clusters);
    for (size_t i = 0; i < members.size(); ++i) {
      double best_sim = 0.0;
      if (scored_current) {
        best_sim = top_sim[i];
      } else {
        profiles.Similarities(i, sims.data());
        for (uint32_t c = 0; c < num_clusters; ++c) {
          if (profiles.size(c) == 0) continue;
          best_sim = std::max(best_sim, sims[c]);
        }
      }
      if (best_sim < worst_best) {
        worst_best = best_sim;
        farthest_idx = i;
      }
    }
    assignment[farthest_idx] = num_clusters;
    ++num_clusters;
    rebuild_profiles();
    iterations_left = std::max(iterations_left, 2);  // allow a settle round
  }

  // --- Materialize the partition --------------------------------------
  // Every exit leaves the profiles built from the final assignment, and
  // every exit after a saturation check leaves the groups that check saw.
  if (!options.ensure_saturation_increase) collect_groups();
  std::vector<uint32_t> kept;
  for (uint32_t c = 0; c < num_clusters; ++c) {
    if (!groups[c].empty()) kept.push_back(c);
  }
  outcome.split = kept.size() >= 2;
  if (!outcome.split) return outcome;
  for (uint32_t c : kept) {
    outcome.stats.push_back(
        ClusterStats(logs, groups[c], parent_stats, active, profiles, c));
    outcome.clusters.push_back(std::move(groups[c]));
  }
  return outcome;
}

}  // namespace bytebrain
