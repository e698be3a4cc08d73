#pragma once
// Combination enumeration.
//
// The verifier explores all size-k subsets of the observable set (outputs +
// probes), for k = d down to 1 (Sec. III-C of the paper: starting from the
// maximum size makes vulnerabilities surface earlier in practice).  These
// helpers provide an allocation-free enumerator over index combinations and
// a count utility used for progress reporting.

#include <cstdint>
#include <vector>

namespace sani {

/// Enumerates all k-element subsets of {0, .., n-1} in lexicographic order.
///
/// Usage:
///   CombinationIter it(n, k);
///   do { use(it.indices()); } while (it.next());
///
/// For k == 0 the single empty combination is produced.
class CombinationIter {
 public:
  CombinationIter(int n, int k);

  /// Starts the enumeration at an arbitrary combination (ascending indices
  /// in [0, n)) instead of the first one, e.g. a shard's begin rank
  /// unranked.
  CombinationIter(int n, int k, const std::vector<int>& start);

  /// The current combination, ascending indices, size k.
  const std::vector<int>& indices() const { return idx_; }

  /// Advances to the next combination; false when exhausted.
  bool next();

  /// True if (n, k) admits at least one combination (k <= n).
  bool valid() const { return valid_; }

 private:
  int n_;
  int k_;
  bool valid_;
  std::vector<int> idx_;
};

/// In-place successor in lexicographic order; false when `combo` was the
/// last size-|combo| subset of {0..n-1}.
bool next_combination(std::vector<int>& combo, int n);

/// In-place successor in depth-first order over every subset of {0..n-1}
/// of size 1..d: lexicographic vector order, so a combination is followed
/// by its extensions before its siblings ({0}, {0,1}, {0,1,2}, {0,1,3}, ...,
/// {0,2}, ...) — the order of the recursive walk that extends a prefix by
/// one larger index at a time.  False when `combo` was the last ({n-1}).
/// Precondition: `combo` is non-empty, ascending, of size at most d.
bool next_depth_first(std::vector<int>& combo, int n, int d);

/// The combination at 0-based `index` of that depth-first order, in O(n d)
/// table reads.  Precondition: index < count_combinations_up_to(n, d) (and
/// that count not saturated).
std::vector<int> unrank_depth_first(int n, int d, std::uint64_t index);

/// Binomial coefficient C(n, k) saturating at UINT64_MAX.
std::uint64_t binomial(int n, int k);

/// Number of subsets of {0..n-1} of size between 1 and d (saturating).
std::uint64_t count_combinations_up_to(int n, int d);

/// Pascal's triangle C(m, j) for 0 <= m <= n and 0 <= j <= k, saturating at
/// UINT64_MAX; entries outside the triangle (j > m) are 0.
class BinomialTable {
 public:
  BinomialTable() = default;
  BinomialTable(int n, int k);

  bool covers(int n, int k) const { return n <= n_ && k <= k_; }
  int n() const { return n_; }
  int k() const { return k_; }

  /// C(m, j).  Precondition: 0 <= m <= n(), 0 <= j <= k().
  std::uint64_t operator()(int m, int j) const {
    return cells_[static_cast<std::size_t>(m) *
                      static_cast<std::size_t>(k_ + 1) +
                  static_cast<std::size_t>(j)];
  }

 private:
  int n_ = -1;
  int k_ = -1;
  std::vector<std::uint64_t> cells_;
};

/// The calling thread's cached table, grown on demand to cover (n, k).
const BinomialTable& binomial_table(int n, int k);

/// Lexicographic rank of a size-k combination among all size-k subsets of
/// {0..n-1}, in O(k) table reads:
///   rank = C(n, k) - 1 - sum_i C(n - 1 - combo[i], k - i).
/// Inverse of unrank_combination.  Precondition: C(n, k) not saturated.
std::uint64_t combination_rank(int n, const std::vector<int>& combo);

/// The combination of lexicographic rank `rank` among size-k subsets of
/// {0..n-1}: the combinadic digits of C(n, k) - 1 - rank, each found by a
/// binary search over one table column (O(k log n)).
/// Precondition: rank < C(n, k) (and C(n, k) not saturated).
std::vector<int> unrank_combination(int n, int k, std::uint64_t rank);

}  // namespace sani
