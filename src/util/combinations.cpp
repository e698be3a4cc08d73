#include "util/combinations.h"

#include <algorithm>
#include <limits>

namespace sani {

CombinationIter::CombinationIter(int n, int k)
    : n_(n), k_(k), valid_(k >= 0 && k <= n) {
  idx_.reserve(static_cast<std::size_t>(k > 0 ? k : 0));
  for (int i = 0; i < k; ++i) idx_.push_back(i);
}

CombinationIter::CombinationIter(int n, int k, const std::vector<int>& start)
    : n_(n), k_(k),
      valid_(k >= 0 && k <= n && static_cast<int>(start.size()) == k),
      idx_(start) {}

bool CombinationIter::next() {
  if (!valid_ || k_ == 0) return false;
  return next_combination(idx_, n_);
}

bool next_combination(std::vector<int>& combo, int n) {
  const int k = static_cast<int>(combo.size());
  // Find the rightmost index that can still move right.
  int i = k - 1;
  while (i >= 0 && combo[static_cast<std::size_t>(i)] == n - k + i) --i;
  if (i < 0) return false;
  ++combo[static_cast<std::size_t>(i)];
  for (int j = i + 1; j < k; ++j)
    combo[static_cast<std::size_t>(j)] =
        combo[static_cast<std::size_t>(j - 1)] + 1;
  return true;
}

bool next_depth_first(std::vector<int>& combo, int n, int d) {
  const int last = combo.back();
  if (last + 1 < n) {
    if (static_cast<int>(combo.size()) < d)
      combo.push_back(last + 1);  // descend: the first extension
    else
      ++combo.back();  // the next sibling
    return true;
  }
  // `last` is n - 1: no extension and no sibling, so the next combination
  // is the parent's next sibling (the parent's last index is below n - 1).
  combo.pop_back();
  if (combo.empty()) return false;
  ++combo.back();
  return true;
}

std::vector<int> unrank_depth_first(int n, int d, std::uint64_t index) {
  const BinomialTable& c = binomial_table(n, d);
  std::vector<int> combo;
  int lo = 0;
  for (;;) {
    // Skip whole subtrees: prefix + v together with every extension of it
    // by up to d - |prefix| - 1 larger indices.
    const int depth = static_cast<int>(combo.size());
    int v = lo;
    for (;; ++v) {
      std::uint64_t subtree = 0;
      for (int j = 0; j < d - depth; ++j) subtree += c(n - 1 - v, j);
      if (index < subtree) break;
      index -= subtree;
    }
    combo.push_back(v);
    if (index == 0) return combo;
    --index;  // prefix + v itself comes before its extensions
    lo = v + 1;
  }
}

std::uint64_t binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t r = 1;
  for (int i = 1; i <= k; ++i) {
    std::uint64_t num = static_cast<std::uint64_t>(n - k + i);
    if (r > kMax / num) return kMax;  // saturate
    r = r * num / static_cast<std::uint64_t>(i);
  }
  return r;
}

BinomialTable::BinomialTable(int n, int k)
    : n_(n), k_(k),
      cells_(static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(k + 1),
             0) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::size_t stride = static_cast<std::size_t>(k + 1);
  for (int m = 0; m <= n; ++m) {
    std::uint64_t* row = &cells_[static_cast<std::size_t>(m) * stride];
    row[0] = 1;
    if (m == 0) continue;
    const std::uint64_t* up = row - stride;
    for (int j = 1; j <= k && j <= m; ++j)
      row[j] = up[j] > kMax - up[j - 1] ? kMax : up[j] + up[j - 1];
  }
}

const BinomialTable& binomial_table(int n, int k) {
  thread_local BinomialTable table;
  if (!table.covers(n, k))
    table = BinomialTable(std::max(n, table.n()), std::max(k, table.k()));
  return table;
}

std::uint64_t combination_rank(int n, const std::vector<int>& combo) {
  const int k = static_cast<int>(combo.size());
  const BinomialTable& c = binomial_table(n, k);
  std::uint64_t rest = 0;
  for (int i = 0; i < k; ++i)
    rest += c(n - 1 - combo[static_cast<std::size_t>(i)], k - i);
  return c(n, k) - 1 - rest;
}

std::vector<int> unrank_combination(int n, int k, std::uint64_t rank) {
  const BinomialTable& c = binomial_table(n, k);
  std::vector<int> combo;
  combo.reserve(static_cast<std::size_t>(k));
  // dual = sum_i C(m_i, k - i) with n > m_0 > m_1 > ... >= 0, where
  // combo[i] = n - 1 - m_i; each m_i is the largest m below the previous
  // one with C(m, k - i) <= the remaining dual.
  std::uint64_t dual = c(n, k) - 1 - rank;
  int hi = n - 1;  // m_i <= hi
  for (int i = 0; i < k; ++i) {
    const int j = k - i;
    int lo = j - 1;  // C(j - 1, j) = 0 <= dual always holds
    while (lo < hi) {
      const int mid = lo + (hi - lo + 1) / 2;
      if (c(mid, j) <= dual)
        lo = mid;
      else
        hi = mid - 1;
    }
    dual -= c(lo, j);
    combo.push_back(n - 1 - lo);
    hi = lo - 1;
  }
  return combo;
}

std::uint64_t count_combinations_up_to(int n, int d) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (int k = 1; k <= d && k <= n; ++k) {
    std::uint64_t c = binomial(n, k);
    if (total > kMax - c) return kMax;
    total += c;
  }
  return total;
}

}  // namespace sani
