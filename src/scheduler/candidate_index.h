#ifndef EASEML_SCHEDULER_CANDIDATE_INDEX_H_
#define EASEML_SCHEDULER_CANDIDATE_INDEX_H_

#include <limits>
#include <vector>

#include "common/exact_sum.h"
#include "common/status.h"
#include "common/tournament_tree.h"
#include "scheduler/user_state.h"

namespace easeml::scheduler {

/// Incremental candidate index: the "no scan" serving path.
///
/// The reference scan (`PickUser`) rescans all T tenants on every `Next()`
/// even though a `Report` changes exactly one tenant's (bound, gap)
/// summary. The index inverts that: one monotone `TournamentTree` whose
/// leaf `t` summarizes tenant `t`'s policy state (`TenantKey` →
/// `IndexNode`, merged with the same total-order tie-breaks as the scan's
/// argmax loops), plus the exactly-mergeable scalar aggregates of GREEDY's
/// candidate threshold. A tenant event (`Report`, `Cancel`, arm selection,
/// retirement) refreshes ONE leaf and replays its O(log T) root path; a
/// pick reads the root, or descends from it, and is bit-identical to the
/// scan by construction.
///
/// ## Per-policy keys and their invalidation contract
///
/// Every `SchedulerPolicy` consumes the index through `PickUserIndexed`;
/// the per-tenant key material each policy relies on is derived in ONE
/// place (`MakeTenantKey`) from `UserState`:
///
///   - GREEDY: (UCB bound sigma~, line-8 gap, exact-sum candidate
///     membership). The candidate threshold "bound * finite_count >= exact
///     sum" is evaluated against an incrementally maintained
///     `ExactDoubleSum` — exact integer arithmetic, so adding a bound and
///     later subtracting it restores the accumulator bit-for-bit and the
///     incremental sum equals the scan's fresh accumulation exactly. The
///     line-8 argmax runs as a pruned tournament descent (candidacy is
///     monotone in the bound, so a subtree whose max bound fails the
///     threshold holds no candidate).
///   - ROUNDROBIN / FCFS: min-id and cyclic-distance picks are answered
///     from `min_schedulable` summaries; the cursor is a QUERY parameter
///     (two O(log T) descents: min schedulable id >= cursor, else global
///     min), so advancing it never touches a leaf — the epoch-offset idea
///     with the offset applied at read time.
///   - RANDOM: per-node schedulable counts give the total for the uniform
///     draw (identical RNG stream) and rank counts let a binary search
///     recover the j-th schedulable id in ascending order.
///   - HYBRID: delegates to the active phase (GREEDY before the freeze
///     switch, ROUNDROBIN after); its freeze detector runs in `OnOutcome`,
///     outside the pick path, identically on both paths.
///
/// Keys go stale the moment their tenant's state changes; the owning
/// selector MUST call `Refresh` after every event that touches a tenant —
/// arm selection, outcome fold, cancel, retire — before the next pick.
/// Tenant ids are dense and never reused, and a retired tenant keeps its
/// (neutral) leaf, so leaf slot == tenant id for the index's lifetime.
///
/// Not thread-safe, and deliberately mutex-free: the index is engine state,
/// serialized by whatever serializes the owning selector (the service's
/// mutex, or the single driving thread).
class CandidateIndex {
 public:
  /// Sentinel for "no tenant": merges below as min-identity, mirroring
  /// GREEDY's kNoUser.
  static constexpr int kNone = std::numeric_limits<int>::max();

  /// Per-tenant key material, derived from `UserState` by `MakeTenantKey`
  /// only. `bound`/`gap` are meaningful only when `schedulable`.
  struct TenantKey {
    bool schedulable = false;    // UserState::Schedulable()
    bool uninitialized = false;  // UserState::NeedsInitialObservation()
    bool bad_policy = false;     // live tenant without confidence bounds
    double bound = 0.0;          // empirical bound sigma~ (Algorithm 2 l.6)
    double gap = 0.0;            // line-8 key: MaxUcb - best_reward
  };

  /// Tournament summary over a leaf range. All merges are exact (integer
  /// counts, min-id, strictly-greater-key argmax with lowest-id tie-break —
  /// the scan's total orders), so the root equals the scan's fold.
  struct IndexNode {
    int cnt_schedulable = 0;
    int min_schedulable = kNone;    // lowest schedulable tenant id
    int min_uninitialized = kNone;  // lowest id the init sweep must serve
    int min_bad_policy = kNone;     // lowest live tenant without bounds
    // Argmax pairs with the scan's -inf-sentinel fold semantics: only keys
    // strictly above -inf (never NaN) occupy a pair; ties keep the lower
    // id. id == kNone marks "no qualifying tenant in this subtree".
    double max_bound = 0.0;
    int max_bound_id = kNone;
    double max_gap = 0.0;
    int max_gap_id = kNone;

    static IndexNode MakeLeaf(int tenant, const TenantKey& key);
    static IndexNode Merge(const IndexNode& a, const IndexNode& b);
  };

  /// GREEDY's candidate-membership context: the exact threshold
  /// statistics. When `all_candidates` (no finite bound exists) every
  /// schedulable tenant is a candidate and the threshold test is skipped —
  /// the scan paths' fallback.
  struct Candidacy {
    const ExactDoubleSum* sum = nullptr;
    int finite_count = 0;
    bool all_candidates = false;

    /// Exact Algorithm 2 line 7 membership test for a schedulable tenant's
    /// bound; identical to the scan paths' BoundIsCandidate.
    bool Admits(double bound) const;
  };

  /// Best (key, lowest-id) pair of a pruned argmax descent; `user == kNone`
  /// when no candidate key rose above the -inf sentinel.
  struct Best {
    double key = -std::numeric_limits<double>::infinity();
    int user = kNone;

    /// The scan's total order: strictly larger key wins, exact ties keep
    /// the lower id. NaN never beats anything.
    bool Beats(const Best& other) const {
      return user != kNone &&
             (other.user == kNone || key > other.key ||
              (key == other.key && user < other.user));
    }
  };

  /// An empty index. `track_gap` controls whether keys carry the line-8
  /// gap — the one O(K) derivation (the batched MaxUcb read). Only
  /// GREEDY/HYBRID picks consume it; engines serving the other schedulers
  /// pass false so the per-event refresh stays O(log T) with no posterior
  /// reads at all.
  explicit CandidateIndex(bool track_gap = true) : track_gap_(track_gap) {}

  /// Appends a NEW tenant as the trailing leaf in O(log T) amortized.
  /// `user.user_id()` must equal the number of tenants appended so far
  /// (ids are dense and grow monotonically).
  void AppendTenant(const UserState& user);

  /// Recomputes `user`'s key (the only O(K) step: the batched MaxUcb
  /// diagnostics read) and replays its leaf's O(log T) root path plus the
  /// scalar aggregates. The tenant must have been appended.
  void Refresh(const UserState& user);

  // --- O(1) reads ---------------------------------------------------------
  const IndexNode& Root() const { return tree_.Root(); }
  int FiniteCount() const { return finite_count_; }
  const ExactDoubleSum& BoundSum() const { return bound_sum_; }

  // --- Pruned descents ----------------------------------------------------
  /// Argmax of the line-8 key over CANDIDATES. `use_gap` picks the gap key
  /// (kMaxUcbGap) vs the bound itself (kMaxEmpiricalBound).
  Best BestCandidate(const Candidacy& candidacy, bool use_gap) const;

  /// Lowest candidate tenant id; kNone if none. (The scan's min_candidate
  /// fallback for the all-keys-at--inf case.)
  int MinCandidate(const Candidacy& candidacy) const;

  /// Lowest schedulable tenant id >= `id_floor`; kNone if none.
  /// Round-robin's cyclic pick = this at the cursor, else the global min.
  int MinSchedulableAtLeast(int id_floor) const;

  /// Number of schedulable tenants with id <= `id_cap` — RANDOM's rank
  /// query for recovering the j-th schedulable id.
  int CountSchedulableLeq(int id_cap) const;

  /// The cached key for `tenant` (fresh iff the invalidation contract was
  /// honored).
  const TenantKey& Key(int tenant) const { return keys_[tenant]; }

  /// Whether keys carry the line-8 gap (see the constructor).
  bool track_gap() const { return track_gap_; }

  /// Invariant check (tests / debug builds): recomputes every key from
  /// `users` and every aggregate from scratch and compares against the
  /// incrementally maintained state — keys bit-for-bit, sums by exact
  /// comparison, every tree node re-merged. Returns Internal on the first
  /// divergence. O(T); never called on the serving path.
  Status Validate(const std::vector<UserState>& users) const;

 private:
  /// MakeTenantKey with this index's gap-tracking mode (defined after the
  /// free function's declaration).
  TenantKey DeriveKey(const UserState& user) const;

  /// Adds (`sign` = +1) or removes (-1) `key`'s contribution to the
  /// GREEDY phase-A scalar aggregates.
  void Count(const TenantKey& key, int sign);

  bool track_gap_ = true;
  TournamentTree<IndexNode> tree_;  // leaf slot == tenant id
  std::vector<TenantKey> keys_;     // indexed by tenant id
  // GREEDY phase-A scalar aggregates, maintained by exact +/- deltas:
  // ExactDoubleSum is exact integer arithmetic, so removals cancel
  // additions bit-for-bit and the running value always equals a fresh
  // accumulation over the current members.
  ExactDoubleSum bound_sum_;
  int finite_count_ = 0;
};

/// The ONE derivation of a tenant's index key from its runtime state; both
/// the incremental refresh and the bulk build call this, and `Validate`
/// recomputes it to catch stale leaves. `track_gap` = false skips the
/// O(K) UcbGap read (the key's gap stays -inf and never wins a tournament
/// pair) for schedulers that never consume it.
CandidateIndex::TenantKey MakeTenantKey(const UserState& user,
                                        bool track_gap = true);

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_CANDIDATE_INDEX_H_
