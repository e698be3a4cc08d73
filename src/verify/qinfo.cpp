#include "verify/qinfo.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/combinations.h"

namespace sani::verify {

QInfoStore::Page& QInfoStore::page_for(int k, std::uint64_t rank) {
  if (k < 1 || k > n_)
    throw std::invalid_argument("QInfoStore: combination size out of range");
  if (k > max_k()) levels_.resize(static_cast<std::size_t>(k));
  Level& level = levels_[static_cast<std::size_t>(k - 1)];
  if (level.ranks == 0) {
    level.ranks = binomial(n_, k);
    level.page_ranks = std::min(kPageRanks, level.ranks);
  }
  if (rank >= level.ranks)
    throw std::invalid_argument("QInfoStore: combination rank out of range");
  const std::uint64_t p = rank >> kPageBits;
  if (p >= level.pages.size()) {
    const std::size_t before = level.pages.capacity();
    level.pages.resize(static_cast<std::size_t>(p + 1));
    grow_bytes((level.pages.capacity() - before) * sizeof(level.pages[0]));
  }
  std::unique_ptr<Page>& slot = level.pages[static_cast<std::size_t>(p)];
  if (!slot) {
    const std::size_t words =
        static_cast<std::size_t>((level.page_ranks + 63) / 64);
    const std::size_t masks =
        static_cast<std::size_t>(level.page_ranks) * stride();
    slot = std::make_unique<Page>();
    slot->present.assign(words, 0);
    slot->masks = std::make_unique<Mask[]>(masks);
    grow_bytes(sizeof(Page) + words * sizeof(std::uint64_t) +
               masks * sizeof(Mask));
  }
  return *slot;
}

std::span<Mask> QInfoStore::emplace(int k, std::uint64_t rank,
                                    int num_secrets) {
  if (entries_ == 0 && levels_.empty()) secrets_ = num_secrets;
  if (num_secrets != secrets_)
    throw std::invalid_argument("QInfoStore: dependency mask width mismatch");
  Page& page = page_for(k, rank);
  const std::uint64_t off = rank & (kPageRanks - 1);
  std::uint64_t& word = page.present[static_cast<std::size_t>(off >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (off & 63);
  if (!(word & bit)) ++entries_;
  word |= bit;
  Mask* slot = &page.masks[off * stride()];
  std::fill(slot, slot + secrets_, Mask{});
  return {slot, static_cast<std::size_t>(secrets_)};
}

void QInfoStore::insert(int k, std::uint64_t rank, std::span<const Mask> V) {
  std::span<Mask> slot = emplace(k, rank, static_cast<int>(V.size()));
  std::copy(V.begin(), V.end(), slot.begin());
}

void QInfoStore::insert(const std::vector<int>& combo,
                        std::span<const Mask> V) {
  insert(static_cast<int>(combo.size()), combination_rank(n_, combo), V);
}

const Mask* QInfoStore::find(const std::vector<int>& combo) const {
  const int k = static_cast<int>(combo.size());
  if (k < 1 || k > max_k()) return nullptr;
  return find(k, combination_rank(n_, combo));
}

void QInfoStore::merge_from(const QInfoStore& other) {
  other.for_each([this](int k, std::uint64_t rank, std::span<const Mask> V) {
    insert(k, rank, V);
  });
}

void QInfoStore::merge_from(QInfoStore&& other) {
  if (entries_ == 0 && levels_.empty() && other.n_ == n_) {
    *this = std::exchange(other, QInfoStore(n_));
    return;
  }
  merge_from(static_cast<const QInfoStore&>(other));
}

}  // namespace sani::verify
