#include "verify/driver.h"

#include <algorithm>

#include "util/combinations.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "verify/backends/backend.h"
#include "verify/backends/registry.h"
#include "verify/partial.h"

namespace sani::verify {

Driver::Driver(std::shared_ptr<const Basis> basis,
               const VerifyOptions& options, sched::CancelToken* cancel)
    : basis_(std::move(basis)),
      options_(options),
      manager_(backend_info(options.engine).needs_thaw
                   ? std::make_unique<dd::Manager>(basis_->vars.num_vars,
                                                   options.cache_bits)
                   : nullptr),
      thawed_(thaw_roots()),
      preds_(manager_ ? std::make_unique<PredicateBuilder>(
                            *manager_, basis_->vars, options.joint_share_count)
                      : nullptr),
      rowcheck_(basis_->vars, options.notion, options.joint_share_count,
                basis_->relevant_publics, preds_.get(),
                backend_info(options.engine).needs_region,
                &stats_.region_cache),
      cancel_(cancel) {
  if (!cancel_) {
    if (options_.time_limit > 0)
      own_cancel_.set_deadline_after(options_.time_limit);
    cancel_ = &own_cancel_;
  }
}

Driver::~Driver() = default;

std::vector<dd::Add> Driver::thaw_roots() {
  std::vector<dd::Add> thawed;
  if (!manager_ || basis_->frozen.empty()) return thawed;
  // Thawing must precede every other node construction so the manager
  // adopts the forest's variable order while still empty (import_forest
  // would otherwise rewrite existing diagrams in place).
  obs::Span span("thaw");
  Stopwatch watch;
  const std::vector<dd::NodeId> roots =
      manager_->import_forest(basis_->frozen);
  // import_forest never crosses a GC safe point; wrapping the roots in
  // handles here makes them GC roots before any later operation can.
  thawed.reserve(roots.size());
  for (dd::NodeId r : roots) thawed.emplace_back(manager_.get(), r);
  thaw_seconds_ = watch.seconds();
  manager_->sample_counters();
  return thawed;
}

void Driver::prepare() {
  if (prepared_) return;
  prepared_ = true;

  const BackendInfo& info = backend_info(options_.engine);
  BackendContext ctx;
  ctx.basis = basis_;
  ctx.manager = manager_.get();
  ctx.thawed = &thawed_;
  if (preds_) ctx.rho_zero = preds_->rho_zero();
  ctx.timers = &stats_.timers;
  ctx.coefficients = &stats_.coefficients;
  ctx.memo_stats = &stats_.prefix_memo;
  ctx.arena_stats = &arena_stats_;
  ctx.memo_capacity = options_.memo_capacity;
  ctx.order = options_.order;
  backend_ = info.make(ctx);
  backend_->prepare();
}

std::span<Mask> Driver::add_dep() {
  const std::size_t S = basis_->vars.secret_vars.size();
  if (part_->k == 0) part_->dep_sizes.push_back(size_);
  part_->dep_ranks.push_back(rank_);
  part_->dep_masks.resize(part_->dep_masks.size() + S);
  return std::span<Mask>(part_->dep_masks).last(S);
}

std::optional<Driver::CheckFailure> Driver::check_current() {
  ++stats_.combinations;
  if (options_.progress) options_.progress->tick();
  std::optional<CheckFailure> failure;
  // Per-rank check latency: only sampled when a metrics export was
  // requested (two clock reads per combination otherwise dominate the
  // cheap low-rank checks).
  auto& metrics = obs::Metrics::instance();
  if (!metrics.enabled()) {
    failure = check_current_impl();
  } else {
    const std::int64_t t0 = obs::Clock::now_ns();
    failure = check_current_impl();
    const std::size_t k = path_.size();
    if (rank_hist_.size() <= k) rank_hist_.resize(k + 1, nullptr);
    if (rank_hist_[k] == nullptr)
      rank_hist_[k] =
          &metrics.histogram("verify.check_ns.k" + std::to_string(k));
    rank_hist_[k]->record(
        static_cast<std::uint64_t>(obs::Clock::now_ns() - t0));
  }
  if (collector_) {
    if (failure)
      collector_->note_fail(path_, failure->alpha, failure->reason);
    else
      collector_->note_pass(path_);
  }
  return failure;
}

std::optional<Driver::CheckFailure> Driver::check_combo(
    const std::vector<int>& combo) {
  if (plan_) {
    const IncrementalPlan::Classification c =
        plan_->classify(combo, plan_scratch_);
    if (c.kind != IncrementalPlan::Kind::kDirty) {
      ++stats_.combinations;
      ++stats_.incremental.combinations_skipped;
      if (options_.progress) options_.progress->tick();
      if (c.kind == IncrementalPlan::Kind::kCleanPass) {
        if (collector_) collector_->note_pass(combo);
        if (c.V) {
          // Splice the replayed dependency masks in, so the union pass
          // consumes exactly the store a cold run would have built.
          std::ranges::copy(*c.V, add_dep().begin());
        }
        return std::nullopt;
      }
      CheckFailure failure{c.fail->alpha, c.fail->reason};
      if (collector_)
        collector_->note_fail(combo, failure.alpha, failure.reason);
      return failure;
    }
    ++stats_.incremental.combinations_rechecked;
  }
  sync_path(combo);
  return check_current();
}

std::optional<Driver::CheckFailure> Driver::check_current_impl() {
  const RowContext row = row_context(*basis_, path_);
  RowCheckQuery q = rowcheck_.query(row, &stats_.coefficients);

  if (auto alpha = backend_->check_rows(q)) {
    return CheckFailure{*alpha,
                        "nonzero Walsh coefficient in the forbidden region "
                        "(per-row T-predicate check)"};
  }
  if (options_.union_check && options_.notion != Notion::kProbing)
    backend_->accumulate_deps(add_dep());
  return std::nullopt;
}

void Driver::sync_path(const std::vector<int>& combo) {
  std::size_t common = 0;
  while (common < path_.size() && common < combo.size() &&
         path_[common] == combo[common])
    ++common;
  while (path_.size() > common) {
    backend_->pop();
    path_.pop_back();
  }
  while (path_.size() < combo.size()) {
    path_.push_back(combo[path_.size()]);
    backend_->push(path_);
  }
}

void Driver::run_shard_partial(
    const sched::Shard& shard,
    const std::function<bool(const std::vector<int>&)>& still_relevant,
    PartialReport& part) {
  prepare();
  const std::uint64_t combos0 = stats_.combinations;
  const std::uint64_t coeffs0 = stats_.coefficients;
  const CacheStats memo0 = stats_.prefix_memo;
  const CacheStats region0 = stats_.region_cache;
  const double conv0 = stats_.timers.get("convolution");
  const double verif0 = stats_.timers.get("verification");
  part.k = shard.k;
  part.begin = shard.begin;
  part.end = shard.end;
  part_ = &part;

  bool stopped = false;  // by the deadline or the cancel signal
  const int N = static_cast<int>(basis_->size());
  const int d = options_.order;
  const bool block = shard.k == 0;
  // A block's combinations of one size form a contiguous rank range of
  // that size: next_rank[k] is the rank of the next size-k combination
  // (unset until the first one is met).
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  std::vector<std::uint64_t> next_rank(block ? d + 1 : 0, kUnset);
  if (shard.k <= N && shard.begin < shard.end) {
    obs::Span span("scan");
    std::vector<int> combo =
        sched::shard_combination(shard, N, d, shard.begin);
    for (std::uint64_t at = shard.begin; at < shard.end; ++at) {
      size_ = static_cast<std::uint8_t>(combo.size());
      if (!block) {
        rank_ = at;
      } else {
        std::uint64_t& r = next_rank[size_];
        if (r == kUnset) r = combination_rank(N, combo);
        rank_ = r++;
      }
      // A counterexample elsewhere only ends this shard once the
      // combinations still ahead of us are ordered after it — everything
      // ordered before the best failure must be checked, or the merged
      // witness would depend on scheduling.
      if (cancel_->expired() ||
          (cancel_->cancelled() && still_relevant && !still_relevant(combo))) {
        stopped = true;
        cancel_->acknowledge();
        break;
      }
      if (auto failure = check_combo(combo)) {
        part.has_failure = true;
        part.fail_rank = at;
        part.fail_alpha = failure->alpha;
        part.fail_reason = std::move(failure->reason);
        break;
      }
      if (at + 1 < shard.end && !(block ? next_depth_first(combo, N, d)
                                        : next_combination(combo, N)))
        break;
    }
  }
  part_ = nullptr;
  if (manager_) manager_->sample_counters();

  part.combinations = stats_.combinations - combos0;
  part.coefficients = stats_.coefficients - coeffs0;
  part.prefix_memo.hits = stats_.prefix_memo.hits - memo0.hits;
  part.prefix_memo.misses = stats_.prefix_memo.misses - memo0.misses;
  part.region_cache.hits = stats_.region_cache.hits - region0.hits;
  part.region_cache.misses = stats_.region_cache.misses - region0.misses;
  part.convolution_seconds = stats_.timers.get("convolution") - conv0;
  part.verification_seconds = stats_.timers.get("verification") - verif0;
  // Every visited combination bumps `combinations` exactly once (checked
  // or replayed), so the contiguous covered prefix falls out of the delta.
  part.covered_end = shard.begin + part.combinations;
  part.complete = !stopped;
}

VerifyStats Driver::stats() const {
  VerifyStats s = stats_;
  s.thaw_seconds = thaw_seconds_;
  if (manager_) {
    const dd::ManagerStats dd = manager_->stats();
    s.dd_cache_hits = dd.cache_hits;
    s.dd_cache_misses = dd.cache_misses;
    s.dd_peak_nodes = dd.peak_nodes;
    s.dd_cache_bits = manager_->cache_bits();
    s.dd_gc_runs = dd.gc_runs;
    s.dd_cache_survived = dd.cache_survived;
    s.dd_arena_bytes = manager_->arena_bytes();
  }
  s.arena_convolutions = arena_stats_.convolutions;
  s.arena_grows = arena_stats_.grows;
  s.arena_peak_bytes = arena_stats_.peak_bytes;
  return s;
}

}  // namespace sani::verify
