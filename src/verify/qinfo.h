#pragma once
// Union-check dependency store (dense, one block per combination size).
//
// The set-level union pass needs, for every passing combination Q, the
// per-secret dependency masks V(Q) accumulated from Q's rows.  Every
// combination of a size is checked exactly once across all shards, so a
// finished scan fills the whole rank space: the store keeps one flat Mask
// block per size k, indexed by the combination's lexicographic rank
// (C(n, k) x #secrets masks), plus a presence bitmap.  A lookup is a page
// index and a bit test, an insert writes in place, and a walk in (k, rank)
// order needs no sort.  The block is paged (kPageRanks ranks per page,
// allocated on first touch) so a scan that stops early — a deadline, a
// failure, a shard of a larger plan — only pays for the pages it reached.
//
// The RowContext of an entry is not stored: it is a pure function of the
// combination (verify/partial.h's row_context).  bytes()/peak_bytes() feed
// the qinfo fields of VerifyStats.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/mask.h"

namespace sani::verify {

class QInfoStore {
 public:
  /// Ranks per page (the last level's page is shorter when C(n, k) is).
  static constexpr int kPageBits = 12;
  static constexpr std::uint64_t kPageRanks = std::uint64_t{1} << kPageBits;

  QInfoStore() = default;
  explicit QInfoStore(int num_observables) : n_(num_observables) {}

  QInfoStore(QInfoStore&&) noexcept = default;
  QInfoStore& operator=(QInfoStore&&) noexcept = default;

  int num_observables() const { return n_; }
  /// Width of every entry's mask vector (fixed by the first insert; 0 while
  /// the store is empty).
  int num_secrets() const { return secrets_; }
  /// Largest combination size with an allocated level (0 when empty).
  int max_k() const { return static_cast<int>(levels_.size()); }

  /// The zeroed, now-present slot of the size-k combination of
  /// lexicographic rank `rank`, for in-place accumulation.  Every entry of
  /// a store has `num_secrets` masks.
  std::span<Mask> emplace(int k, std::uint64_t rank, int num_secrets);

  void insert(int k, std::uint64_t rank, std::span<const Mask> V);
  void insert(const std::vector<int>& combo, std::span<const Mask> V);

  /// The masks of an entry (num_secrets() of them), or null if absent.
  const Mask* find(int k, std::uint64_t rank) const {
    if (k < 1 || k > max_k()) return nullptr;
    const Level& level = levels_[static_cast<std::size_t>(k - 1)];
    const std::uint64_t p = rank >> kPageBits;
    if (rank >= level.ranks || p >= level.pages.size() || !level.pages[p])
      return nullptr;
    const Page& page = *level.pages[p];
    const std::uint64_t off = rank & (kPageRanks - 1);
    if (!((page.present[off >> 6] >> (off & 63)) & 1)) return nullptr;
    return &page.masks[off * stride()];
  }
  const Mask* find(const std::vector<int>& combo) const;

  std::size_t size() const { return entries_; }

  /// Heap footprint of the pages, presence bitmaps and page directories.
  std::size_t bytes() const { return bytes_; }
  std::size_t peak_bytes() const { return peak_bytes_; }

  /// Folds `other`'s entries in (disjoint key sets across shards).
  void merge_from(const QInfoStore& other);
  /// Same, stealing `other`'s pages when this store is empty.
  void merge_from(QInfoStore&& other);

  /// Calls fn(k, rank, masks) for every entry, in (k, rank) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (int k = 1; k <= max_k(); ++k) {
      const Level& level = levels_[static_cast<std::size_t>(k - 1)];
      for (std::size_t p = 0; p < level.pages.size(); ++p) {
        if (!level.pages[p]) continue;
        const Page& page = *level.pages[p];
        for (std::size_t w = 0; w < page.present.size(); ++w)
          for (std::uint64_t bits = page.present[w]; bits; bits &= bits - 1) {
            const std::uint64_t off =
                w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(bits));
            fn(k, (static_cast<std::uint64_t>(p) << kPageBits) + off,
               std::span<const Mask>(&page.masks[off * stride()],
                                     static_cast<std::size_t>(secrets_)));
          }
      }
    }
  }

 private:
  struct Page {
    std::vector<std::uint64_t> present;  // bit per rank of the page
    std::unique_ptr<Mask[]> masks;       // page ranks x stride(), zeroed
  };
  struct Level {
    std::uint64_t ranks = 0;       // C(n, k); 0 until the level is used
    std::uint64_t page_ranks = 0;  // min(kPageRanks, ranks)
    std::vector<std::unique_ptr<Page>> pages;  // grown to the highest touched
  };

  // At least one mask per slot so a present entry never yields null.
  std::size_t stride() const {
    return secrets_ > 0 ? static_cast<std::size_t>(secrets_) : 1;
  }
  Page& page_for(int k, std::uint64_t rank);
  void grow_bytes(std::size_t delta) {
    bytes_ += delta;
    if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
  }

  int n_ = 0;
  int secrets_ = 0;
  std::vector<Level> levels_;  // index k - 1
  std::size_t entries_ = 0;
  std::size_t bytes_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace sani::verify
