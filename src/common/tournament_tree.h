#ifndef EASEML_COMMON_TOURNAMENT_TREE_H_
#define EASEML_COMMON_TOURNAMENT_TREE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace easeml {

/// Monotone tournament tree: an incrementally maintained reduction.
///
/// Where a plain fold combines a vector of summaries once per query,
/// a `TournamentTree` KEEPS the whole reduction materialized — a fixed-shape
/// perfect binary tree whose leaves are per-tenant summaries and whose
/// internal nodes each hold `Summary::Merge(left, right)` of their children.
/// Changing one leaf replays only the O(log n) internal nodes on its
/// root path (`Update`); the full reduction is read off the root in O(1).
/// That turns the selector's O(T) per-event scan into O(log T) per-event
/// index maintenance — the "no scan" serving path.
///
/// The tree SHAPE is a pure function of the leaf count (leaves padded to the
/// next power of two, missing slots holding the identity summary), never of
/// update order or thread timing. When `Merge` is additionally associative
/// with a total-order tie-break (min-index argmax, exact integer sums,
/// `ExactDoubleSum::Merge`), the root is independent of how tenants are
/// partitioned into leaves, which is what lets the index replay the scan
/// path bit-identically.
///
/// `Summary` requirements:
///   - default-constructible, and the default value is the merge identity
///     (an "empty slot": merging it in changes nothing);
///   - `static Summary Summary::Merge(const Summary& left,
///                                    const Summary& right)`.
///
/// Pruned descents (threshold argmax, leftmost-satisfying, rank queries)
/// walk the heap-ordered node array directly via `node()` / `kRoot` /
/// child index arithmetic; the policy-specific query logic lives with the
/// summary type, not here.
///
/// Not thread-safe; the owning engine serializes access.
template <typename Summary>
class TournamentTree {
 public:
  /// Heap layout: root at index 1, children of `i` at `2i` and `2i+1`,
  /// leaf `slot` at `leaf_begin() + slot`.
  static constexpr int kRoot = 1;

  TournamentTree() { Assign({}); }

  /// Bulk build over `leaves` in O(n): replaces the whole tree. Leaf order
  /// is the caller's (the candidate index uses ascending tenant id).
  void Assign(std::vector<Summary> leaves) {
    num_leaves_ = static_cast<int>(leaves.size());
    cap_ = 1;
    while (cap_ < num_leaves_) cap_ *= 2;
    nodes_.assign(static_cast<size_t>(2 * cap_), Summary());
    for (int i = 0; i < num_leaves_; ++i) {
      nodes_[static_cast<size_t>(cap_ + i)] = std::move(leaves[i]);
    }
    for (int i = cap_ - 1; i >= 1; --i) {
      nodes_[static_cast<size_t>(i)] = Summary::Merge(
          nodes_[static_cast<size_t>(2 * i)],
          nodes_[static_cast<size_t>(2 * i + 1)]);
    }
  }

  /// Appends a new trailing leaf: O(log n) amortized (the leaf capacity
  /// doubles like a vector's, rebuilding only at powers of two). The
  /// tenant-add hot path — a full rebuild per add would be O(n).
  void Append(Summary leaf) {
    if (num_leaves_ == cap_) {
      std::vector<Summary> leaves(
          nodes_.begin() + cap_, nodes_.begin() + cap_ + num_leaves_);
      leaves.push_back(std::move(leaf));
      Assign(std::move(leaves));
      return;
    }
    const int slot = num_leaves_++;
    Update(slot, std::move(leaf));
  }

  /// Replaces leaf `slot` and replays its O(log n) ancestors.
  void Update(int slot, Summary leaf) {
    int i = cap_ + slot;
    nodes_[static_cast<size_t>(i)] = std::move(leaf);
    for (i /= 2; i >= 1; i /= 2) {
      nodes_[static_cast<size_t>(i)] = Summary::Merge(
          nodes_[static_cast<size_t>(2 * i)],
          nodes_[static_cast<size_t>(2 * i + 1)]);
    }
  }

  /// Number of occupied leaf slots (excluding power-of-two padding).
  int num_leaves() const { return num_leaves_; }

  /// Index of leaf slot 0 in the node array; leaves are contiguous.
  int leaf_begin() const { return cap_; }

  /// The full reduction over every leaf.
  const Summary& Root() const { return nodes_[kRoot]; }

  const Summary& Leaf(int slot) const {
    return nodes_[static_cast<size_t>(cap_ + slot)];
  }

  /// Raw heap-ordered node access for pruned descents. `index` in
  /// [1, 2 * leaf_begin()).
  const Summary& node(int index) const {
    return nodes_[static_cast<size_t>(index)];
  }

  bool is_leaf(int index) const { return index >= cap_; }

  /// Leaf slot of a node index at the leaf level.
  int slot_of(int index) const { return index - cap_; }

 private:
  int num_leaves_ = 0;
  int cap_ = 1;              // power-of-two leaf capacity
  std::vector<Summary> nodes_;  // 1-based heap; [0] unused identity
};

}  // namespace easeml

#endif  // EASEML_COMMON_TOURNAMENT_TREE_H_
