#include "verify/parallel.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "sched/cancel.h"
#include "sched/pool.h"
#include "sched/shard.h"
#include "util/combinations.h"
#include "obs/clock.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "verify/driver.h"
#include "verify/incremental.h"
#include "verify/partial.h"
#include "verify/portfolio.h"

namespace sani::verify {

namespace {

struct WorkerCtx {
  std::unique_ptr<Driver> driver;
  std::uint64_t shards = 0;
};

/// The pool run over the one shared basis.  Worker 0's Driver is built on
/// the calling thread; the others are built lazily on their own threads
/// (the ADD engines thaw the basis' frozen forest into a private manager in
/// the Driver constructor — the only per-worker setup left).
VerifyResult run_pool(std::shared_ptr<const Basis> basis,
                      const VerifyOptions& options,
                      sched::CancelToken* external_cancel = nullptr,
                      const IncrementalContext* ictx = nullptr) {
  const int jobs = sched::default_jobs(options.jobs);

  sched::CancelToken own_cancel;
  sched::CancelToken& cancel = external_cancel ? *external_cancel : own_cancel;
  if (options.time_limit > 0) cancel.set_deadline_after(options.time_limit);

  const int N = static_cast<int>(basis->size());

  VerifyResult result;
  result.stats.num_observables = static_cast<std::size_t>(N);

  const bool largest = options.search_order == SearchOrder::kLargestFirst;
  sched::ShardPlanOptions plan_options;
  if (options.shard_size > 0) plan_options.fixed_size = options.shard_size;
  const std::vector<sched::Shard> shards =
      sched::plan_shards(N, options.order, jobs, largest, plan_options);

  // Per-worker outcome recorders for the fresh summary (merged below);
  // every worker shares the one immutable plan without synchronization.
  std::vector<std::unique_ptr<SummaryCollector>> collectors;
  if (ictx && ictx->collector) {
    collectors.resize(static_cast<std::size_t>(jobs));
    for (auto& c : collectors)
      c = std::make_unique<SummaryCollector>(N, options.order);
  }
  auto arm_incremental = [&](int worker, Driver& driver) {
    if (!ictx) return;
    driver.set_incremental(
        ictx->plan, collectors.empty()
                        ? nullptr
                        : collectors[static_cast<std::size_t>(worker)].get());
  };

  std::vector<WorkerCtx> ctx(static_cast<std::size_t>(jobs));
  ctx[0].driver = std::make_unique<Driver>(basis, options, &cancel);
  arm_incremental(0, *ctx[0].driver);

  // The deterministic merge state: workers emit one PartialReport per
  // shard and the assembler folds each in as it completes (order-minimal
  // failure, merged union-check store) — the fold is associative, so the
  // completion order the pool happens to produce cannot show in the result.
  std::mutex best_mu;
  ReportAssembler assembler(basis, options);
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<bool> timed_out{false};

  // True while `combo` is still ordered before the best known failure —
  // i.e. checking it can still change the reported witness.
  auto still_relevant = [&](const std::vector<int>& combo) {
    std::lock_guard<std::mutex> lk(best_mu);
    return !assembler.has_failure() ||
           combo_before(combo, assembler.failure_combo(), largest);
  };

  if (options.progress)
    options.progress->start(count_combinations_up_to(N, options.order));

  sched::Pool pool(jobs);
  const sched::PoolStats pool_stats = pool.run(
      shards.size(), [&](int worker, std::size_t task) {
        WorkerCtx& slot = ctx[static_cast<std::size_t>(worker)];
        if (!slot.driver) {
          slot.driver = std::make_unique<Driver>(basis, options, &cancel);
          arm_incremental(worker, *slot.driver);
        }
        const sched::Shard& shard = shards[task];

        // Claiming a whole shard is pointless once a failure ordered before
        // its first combination exists; skip it outright.
        if (cancel.cancelled() &&
            !still_relevant(unrank_combination(N, shard.k, shard.begin))) {
          skipped.fetch_add(1, std::memory_order_relaxed);
          cancel.acknowledge();
          return;
        }

        Driver::ShardOutcome out;
        PartialReport part;
        slot.driver->run_shard_partial(shard, still_relevant, out, part);
        ++slot.shards;
        if (out.timed_out) timed_out.store(true, std::memory_order_relaxed);
        if (out.abandoned) abandoned.fetch_add(1, std::memory_order_relaxed);
        const bool failed = out.failure.has_value();
        {
          std::lock_guard<std::mutex> lk(best_mu);
          assembler.add(std::move(part));
        }
        if (failed) cancel.cancel();
      });

  if (options.progress) options.progress->stop();

  // Merge: counters, per-worker stats, union-check data.  The one-time
  // basis build is credited here, once — not per worker.
  result.stats.coefficients += basis->base_coefficients;
  result.stats.timers.add("base", basis->build_seconds);
  result.stats.frozen_nodes = basis->frozen.node_count();
  result.stats.frozen_bytes = basis->frozen.empty() ? 0 : basis->frozen.bytes();

  result.stats.parallel.jobs = jobs;
  // Every engine shares the one Basis now; the frozen forest replaced the
  // per-worker unfolding replays, so these are constants, kept as report
  // fields (and test assertions) rather than run-dependent state.
  result.stats.parallel.shared_basis = true;
  result.stats.parallel.replays = 0;
  result.stats.parallel.shards_total = shards.size();
  result.stats.parallel.shards_stolen = pool_stats.tasks_stolen;
  result.stats.parallel.shards_skipped =
      skipped.load(std::memory_order_relaxed);
  result.stats.parallel.shards_abandoned =
      abandoned.load(std::memory_order_relaxed);
  result.stats.parallel.workers.resize(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    const WorkerCtx& slot = ctx[static_cast<std::size_t>(w)];
    WorkerStats& out =
        result.stats.parallel.workers[static_cast<std::size_t>(w)];
    if (!slot.driver) continue;  // this worker never claimed a shard
    const VerifyStats& ws = slot.driver->stats();
    out.shards = slot.shards;
    out.combinations = ws.combinations;
    out.coefficients = ws.coefficients;
    out.thaw_seconds = slot.driver->thaw_seconds();
    out.peak_nodes = slot.driver->peak_nodes();
    const dd::ManagerStats dd = slot.driver->manager_stats();
    result.stats.thaw_seconds += out.thaw_seconds;
    result.stats.dd_cache_hits += dd.cache_hits;
    result.stats.dd_cache_misses += dd.cache_misses;
    if (out.peak_nodes > result.stats.dd_peak_nodes)
      result.stats.dd_peak_nodes = out.peak_nodes;
    result.stats.dd_gc_runs += dd.gc_runs;
    result.stats.dd_cache_survived += dd.cache_survived;
    if (slot.driver->manager_cache_bits() > result.stats.dd_cache_bits)
      result.stats.dd_cache_bits = slot.driver->manager_cache_bits();
    if (slot.driver->manager_arena_bytes() > result.stats.dd_arena_bytes)
      result.stats.dd_arena_bytes = slot.driver->manager_arena_bytes();
    const spectral::ArenaStats& arena = slot.driver->arena_stats();
    result.stats.arena_convolutions += arena.convolutions;
    result.stats.arena_grows += arena.grows;
    if (arena.peak_bytes > result.stats.arena_peak_bytes)
      result.stats.arena_peak_bytes = arena.peak_bytes;
    result.stats.combinations += ws.combinations;
    result.stats.coefficients += ws.coefficients;
    result.stats.incremental.combinations_skipped +=
        ws.incremental.combinations_skipped;
    result.stats.incremental.combinations_rechecked +=
        ws.incremental.combinations_rechecked;
    result.stats.prefix_memo.hits += ws.prefix_memo.hits;
    result.stats.prefix_memo.misses += ws.prefix_memo.misses;
    result.stats.region_cache.hits += ws.region_cache.hits;
    result.stats.region_cache.misses += ws.region_cache.misses;
    for (const auto& name : ws.timers.names())
      result.stats.timers.add(name, ws.timers.get(name));
  }
  result.stats.qinfo_entries = assembler.qinfo().size();
  result.stats.qinfo_peak_bytes = assembler.qinfo().peak_bytes();
  if (ictx && ictx->collector)
    for (const auto& c : collectors) ictx->collector->merge_from(*c);

  if (assembler.has_failure()) {
    result.secure = false;
    result.counterexample = assembler.failure_counterexample();
  } else if (timed_out.load(std::memory_order_relaxed) || cancel.expired()) {
    result.timed_out = true;
  } else if (options.union_check && options.notion != Notion::kProbing) {
    // Every combination passed the per-row check; the set-level pass runs
    // once, on the assembler's merged dependency data (identical to the
    // serial pass — the shards partition the combination space).
    ScopedPhase phase(result.stats.timers, "union");
    obs::Span span("union");
    ctx[0].driver->union_pass_over(assembler.qinfo(), result);
  }
  if (ictx && ictx->deps_out) ictx->deps_out->merge_from(assembler.take_qinfo());
  result.stats.parallel.cancel_latency = cancel.max_ack_latency();
  return result;
}

}  // namespace

VerifyResult verify_parallel(const PrepareFn& prepare,
                             const VerifyOptions& options) {
  // One build on the calling thread: sizes the probe space and yields the
  // shared Basis (frozen forest included) every worker reads.  The
  // unfolding and its manager are dropped before the pool starts.
  PreparedInput first = prepare();
  std::shared_ptr<const Basis> basis =
      build_basis(first.unfolded, first.observables, options.engine);
  // kAuto must resolve before any Driver exists: the registry carries no
  // kAuto entry, and the workers copy their engine from the options.
  PortfolioStats pstats;
  const VerifyOptions resolved = resolve_portfolio(*basis, options, &pstats);
  VerifyResult result = run_pool(std::move(basis), resolved);
  if (pstats.active) result.stats.portfolio = pstats;
  return result;
}

VerifyResult verify_parallel_basis(std::shared_ptr<const Basis> basis,
                                   const VerifyOptions& options,
                                   sched::CancelToken* cancel) {
  return run_pool(std::move(basis), options, cancel);
}

VerifyResult verify_parallel_basis(std::shared_ptr<const Basis> basis,
                                   const VerifyOptions& options,
                                   sched::CancelToken* cancel,
                                   const IncrementalContext* ctx) {
  return run_pool(std::move(basis), options, cancel, ctx);
}

}  // namespace sani::verify
