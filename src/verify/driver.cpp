#include "verify/driver.h"

#include <algorithm>
#include <stdexcept>

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
                &stats_.region_cache),
      qinfo_(static_cast<int>(basis_->size())),
      cancel_(cancel) {
  if (manager_) stats_.timers.add("thaw", thaw_seconds_);
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

void Driver::count_basis_build() {
  stats_.coefficients += basis_->base_coefficients;
  stats_.timers.add("base", basis_->build_seconds);
}

VerifyResult Driver::run() {
  VerifyResult result;
  prepare();

  {
    obs::Span span("scan");
    if (options_.search_order == SearchOrder::kLargestFirst) {
      largest_first(result);
    } else if (plan_) {
      std::vector<int> combo;
      combo.reserve(static_cast<std::size_t>(options_.order));
      dfs_incremental(0, combo, result);
    } else {
      dfs(0, result);
    }
  }
  if (manager_) manager_->sample_counters();

  if (result.secure && !result.timed_out && options_.union_check &&
      options_.notion != Notion::kProbing) {
    ScopedPhase phase(stats_.timers, "union");
    obs::Span span("union");
    union_pass_over(qinfo_, result);
  }

  stats_.num_observables = basis_->size();
  stats_.qinfo_entries = qinfo_.size();
  stats_.qinfo_peak_bytes = qinfo_.peak_bytes();
  stats_.frozen_nodes = basis_->frozen.node_count();
  stats_.frozen_bytes = basis_->frozen.empty() ? 0 : basis_->frozen.bytes();
  stats_.thaw_seconds = thaw_seconds_;
  const dd::ManagerStats dd = manager_stats();
  stats_.dd_cache_hits = dd.cache_hits;
  stats_.dd_cache_misses = dd.cache_misses;
  stats_.dd_peak_nodes = dd.peak_nodes;
  stats_.dd_cache_bits = manager_ ? manager_->cache_bits() : 0;
  stats_.dd_gc_runs = dd.gc_runs;
  stats_.dd_cache_survived = dd.cache_survived;
  stats_.dd_arena_bytes = manager_ ? manager_->arena_bytes() : 0;
  stats_.arena_convolutions = arena_stats_.convolutions;
  stats_.arena_grows = arena_stats_.grows;
  stats_.arena_peak_bytes = arena_stats_.peak_bytes;
  result.stats = stats_;
  return result;
}

std::span<Mask> Driver::dep_slot(const std::vector<int>& combo) {
  const int S = static_cast<int>(basis_->vars.secret_vars.size());
  const std::uint64_t rank =
      combination_rank(static_cast<int>(basis_->size()), combo);
  if (shard_part_) {
    shard_part_->deps.push_back(
        PartialReport::Dep{rank, std::vector<Mask>(static_cast<std::size_t>(S))});
    return shard_part_->deps.back().V;
  }
  return qinfo_.emplace(static_cast<int>(combo.size()), rank, S);
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
      // Register the phase names a real check would have touched (at zero
      // cost) so a fully-replayed run's report keeps the cold run's phase
      // shape — deterministic reports diff byte-clean either way.
      stats_.timers.add("convolution", 0.0);
      stats_.timers.add("verification", 0.0);
      if (options_.progress) options_.progress->tick();
      if (c.kind == IncrementalPlan::Kind::kCleanPass) {
        if (collector_) collector_->note_pass(combo);
        if (c.V) {
          // Splice the replayed dependency masks in, so the union pass
          // consumes exactly the store a cold run would have built.
          std::ranges::copy(*c.V, dep_slot(combo).begin());
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
    backend_->accumulate_deps(dep_slot(path_));
  return std::nullopt;
}

CounterExample Driver::make_counterexample(const std::vector<int>& combo,
                                           const CheckFailure& failure) const {
  CounterExample ce;
  for (int i : combo)
    ce.observables.push_back(basis_->obs[static_cast<std::size_t>(i)].name);
  ce.alpha = failure.alpha;
  ce.reason = failure.reason;
  return ce;
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

bool Driver::expired(VerifyResult& result) {
  if (cancel_->stop_requested()) {
    result.timed_out = true;
    cancel_->acknowledge();
    return true;
  }
  return false;
}

void Driver::dfs(int start, VerifyResult& result) {
  if (!result.secure || result.timed_out) return;
  if (static_cast<int>(path_.size()) >= options_.order) return;
  for (int i = start; i < static_cast<int>(basis_->size()); ++i) {
    if (expired(result)) return;
    path_.push_back(i);
    backend_->push(path_);
    const auto failure = check_current();
    if (failure) {
      result.secure = false;
      result.counterexample = make_counterexample(path_, *failure);
    } else {
      dfs(i + 1, result);
    }
    backend_->pop();
    path_.pop_back();
    if (!result.secure || result.timed_out) return;
  }
}

void Driver::dfs_incremental(int start, std::vector<int>& combo,
                             VerifyResult& result) {
  if (!result.secure || result.timed_out) return;
  if (static_cast<int>(combo.size()) >= options_.order) return;
  for (int i = start; i < static_cast<int>(basis_->size()); ++i) {
    if (expired(result)) return;
    combo.push_back(i);
    const auto failure = check_combo(combo);
    if (failure) {
      result.secure = false;
      result.counterexample = make_counterexample(combo, *failure);
    } else {
      dfs_incremental(i + 1, combo, result);
    }
    combo.pop_back();
    if (!result.secure || result.timed_out) return;
  }
}

/// Sec. III-C order: every combination of size d first, then d-1, ...
/// Lexicographically adjacent combinations share convolution prefixes, so
/// the backend stack is diffed rather than rebuilt.
void Driver::largest_first(VerifyResult& result) {
  const int N = static_cast<int>(basis_->size());
  for (int k = options_.order; k >= 1; --k) {
    if (!result.secure || result.timed_out) break;
    CombinationIter it(N, k);
    if (!it.valid()) continue;
    do {
      if (expired(result)) break;
      if (auto failure = check_combo(it.indices())) {
        result.secure = false;
        result.counterexample = make_counterexample(it.indices(), *failure);
        break;
      }
    } while (it.next());
  }
  sync_path({});
}

void Driver::run_shard(
    const sched::Shard& shard,
    const std::function<bool(const std::vector<int>&)>& still_relevant,
    ShardOutcome& out) {
  prepare();
  const int N = static_cast<int>(basis_->size());
  if (shard.k < 1 || shard.k > N || shard.begin >= shard.end) return;

  obs::Span span("scan");
  std::vector<int> combo = unrank_combination(N, shard.k, shard.begin);
  for (std::uint64_t r = shard.begin; r < shard.end; ++r) {
    if (cancel_->expired()) {
      out.timed_out = true;
      cancel_->acknowledge();
      return;
    }
    // A counterexample elsewhere only ends this shard once the combinations
    // still ahead of us are ordered after it — everything ordered before
    // the best failure must be checked, or the merged witness would depend
    // on scheduling.
    if (cancel_->cancelled() && still_relevant && !still_relevant(combo)) {
      out.abandoned = true;
      cancel_->acknowledge();
      return;
    }
    if (auto failure = check_combo(combo)) {
      out.failure = ShardFailure{combo, make_counterexample(combo, *failure)};
      return;
    }
    if (r + 1 < shard.end && !next_combination(combo, N)) break;
  }
}

void Driver::run_shard_partial(
    const sched::Shard& shard,
    const std::function<bool(const std::vector<int>&)>& still_relevant,
    ShardOutcome& out, PartialReport& part) {
  const std::uint64_t combos0 = stats_.combinations;
  const std::uint64_t coeffs0 = stats_.coefficients;
  const CacheStats memo0 = stats_.prefix_memo;
  const CacheStats region0 = stats_.region_cache;
  const double conv0 = stats_.timers.get("convolution");
  const double verif0 = stats_.timers.get("verification");
  // The shard's dependency entries go straight into the partial: in shard
  // mode the PartialReport, not the driver, owns the merge-bound state.
  shard_part_ = &part;
  run_shard(shard, still_relevant, out);
  shard_part_ = nullptr;

  part.k = shard.k;
  part.begin = shard.begin;
  part.end = shard.end;
  part.combinations = stats_.combinations - combos0;
  part.coefficients = stats_.coefficients - coeffs0;
  part.prefix_memo.hits = stats_.prefix_memo.hits - memo0.hits;
  part.prefix_memo.misses = stats_.prefix_memo.misses - memo0.misses;
  part.region_cache.hits = stats_.region_cache.hits - region0.hits;
  part.region_cache.misses = stats_.region_cache.misses - region0.misses;
  part.convolution_seconds = stats_.timers.get("convolution") - conv0;
  part.verification_seconds = stats_.timers.get("verification") - verif0;
  // Every visited rank bumps `combinations` exactly once (checked or
  // replayed), so the contiguous covered prefix falls out of the delta.
  part.covered_end = shard.begin + part.combinations;
  part.complete = !out.timed_out && !out.abandoned;
  if (out.failure) {
    const int N = static_cast<int>(basis_->size());
    part.has_failure = true;
    part.fail_rank = combination_rank(N, out.failure->combo);
    part.fail_alpha = out.failure->ce.alpha;
    part.fail_reason = out.failure->ce.reason;
  }
}

void Driver::union_pass_over(const QInfoStore& qinfo, VerifyResult& result) {
  union_pass(*basis_, rowcheck_.checker(), qinfo, cancel_, result);
}

std::size_t Driver::peak_nodes() const {
  return manager_ ? manager_->stats().peak_nodes : 0;
}

dd::ManagerStats Driver::manager_stats() const {
  return manager_ ? manager_->stats() : dd::ManagerStats{};
}

int Driver::manager_cache_bits() const {
  return manager_ ? manager_->cache_bits() : 0;
}

std::size_t Driver::manager_arena_bytes() const {
  return manager_ ? manager_->arena_bytes() : 0;
}

}  // namespace sani::verify
