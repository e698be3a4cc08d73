#include "sched/shard.h"

#include <algorithm>

#include "util/combinations.h"

namespace sani::sched {

namespace {

/// Splits [0, total) of one shard shape (size k, or 0 for blocks).
void split(std::uint64_t total, int k, int workers,
           const ShardPlanOptions& opts, std::vector<Shard>& out) {
  if (total == 0) return;
  std::uint64_t size;
  if (opts.fixed_size > 0) {
    size = opts.fixed_size;
  } else {
    const std::uint64_t target_shards =
        static_cast<std::uint64_t>(workers) *
        static_cast<std::uint64_t>(opts.oversubscribe > 0 ? opts.oversubscribe
                                                          : 1);
    size = (total + target_shards - 1) / target_shards;
    size = std::clamp(size, opts.min_size, opts.max_size);
  }
  if (size == 0) size = 1;
  for (std::uint64_t begin = 0; begin < total; begin += size)
    out.push_back(Shard{k, begin, std::min(begin + size, total)});
}

}  // namespace

std::vector<Shard> plan_shards(int n, int d, int workers, bool largest_first,
                               const ShardPlanOptions& options) {
  std::vector<Shard> out;
  if (workers < 1) workers = 1;
  if (largest_first) {
    for (int k = std::min(d, n); k >= 1; --k)
      split(binomial(n, k), k, workers, options, out);
  } else {
    for (int k = 1; k <= d && k <= n; ++k)
      split(binomial(n, k), k, workers, options, out);
  }
  return out;
}

std::vector<Shard> plan_depth_first_blocks(int n, int d, int workers,
                                           const ShardPlanOptions& options) {
  std::vector<Shard> out;
  split(count_combinations_up_to(n, d), 0, workers < 1 ? 1 : workers, options,
        out);
  return out;
}

std::vector<int> shard_combination(const Shard& shard, int n, int d,
                                   std::uint64_t index) {
  return shard.k > 0 ? unrank_combination(n, shard.k, index)
                     : unrank_depth_first(n, d, index);
}

}  // namespace sani::sched
