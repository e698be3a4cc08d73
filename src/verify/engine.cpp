#include "verify/engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/progress.h"
#include "sched/cancel.h"
#include "sched/pool.h"
#include "sched/shard.h"
#include "util/combinations.h"
#include "verify/driver.h"
#include "verify/incremental.h"
#include "verify/partial.h"
#include "verify/portfolio.h"

namespace sani::verify {

namespace {

void check_order(const VerifyOptions& options) {
  if (options.order < 1)
    throw std::invalid_argument("verify: order must be >= 1");
}

struct Worker {
  std::unique_ptr<Driver> driver;
  std::unique_ptr<SummaryCollector> collector;
  std::uint64_t shards = 0;
};

/// Lays the per-worker figures the partials do not carry (thaw, decision
/// diagram, convolution arena, incremental replay split) over the
/// assembler's report, and fills the `parallel` section when the caller
/// asked for a worker count other than 1.
void overlay_workers(const std::vector<Worker>& workers,
                     const VerifyOptions& options, VerifyStats& s) {
  double thaw = 0.0;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (!workers[w].driver) continue;  // this worker never claimed a shard
    const VerifyStats ws = workers[w].driver->stats();
    thaw += ws.thaw_seconds;
    s.dd_cache_hits += ws.dd_cache_hits;
    s.dd_cache_misses += ws.dd_cache_misses;
    s.dd_peak_nodes = std::max(s.dd_peak_nodes, ws.dd_peak_nodes);
    s.dd_gc_runs += ws.dd_gc_runs;
    s.dd_cache_survived += ws.dd_cache_survived;
    s.dd_arena_bytes = std::max(s.dd_arena_bytes, ws.dd_arena_bytes);
    s.arena_convolutions += ws.arena_convolutions;
    s.arena_grows += ws.arena_grows;
    s.arena_peak_bytes = std::max(s.arena_peak_bytes, ws.arena_peak_bytes);
    s.incremental.combinations_skipped += ws.incremental.combinations_skipped;
    s.incremental.combinations_rechecked +=
        ws.incremental.combinations_rechecked;
    if (options.jobs != 1) {
      WorkerStats& out = s.parallel.workers[w];
      out.shards = workers[w].shards;
      out.combinations = ws.combinations;
      out.coefficients = ws.coefficients;
      out.thaw_seconds = ws.thaw_seconds;
      out.peak_nodes = ws.dd_peak_nodes;
    }
  }
  s.thaw_seconds = thaw;
  if (thaw > 0.0) s.timers.add("thaw", thaw);
}

}  // namespace

VerifyResult verify_basis(std::shared_ptr<const Basis> basis,
                          const VerifyOptions& options,
                          sched::CancelToken* cancel,
                          const IncrementalContext* ctx) {
  check_order(options);
  if (options.engine == EngineKind::kAuto) {
    // Resolve kAuto before any engine-dependent construction: the Drivers
    // hold the options by reference and the backend registry has no kAuto
    // entry, so an unresolved kAuto must never reach either.
    VerifyOptions resolved = options;
    resolved.engine = resolve_engine(options.engine);
    return verify_basis(std::move(basis), resolved, cancel, ctx);
  }

  const int jobs = sched::default_jobs(options.jobs);
  sched::CancelToken own_cancel;
  sched::CancelToken& token = cancel ? *cancel : own_cancel;
  if (options.time_limit > 0) token.set_deadline_after(options.time_limit);

  const int N = static_cast<int>(basis->size());
  const bool largest = options.search_order == SearchOrder::kLargestFirst;
  // Both plans are slices of the search order in plan order, so one worker
  // walks exactly that order and ends at the first failure: largest-first
  // as rank ranges, size by size; depth-first as blocks of the depth-first
  // order over every size, where each prefix is pushed once.
  sched::ShardPlanOptions plan_options;
  if (options.shard_size > 0) plan_options.fixed_size = options.shard_size;
  const std::vector<sched::Shard> shards =
      largest ? sched::plan_shards(N, options.order, jobs, true, plan_options)
              : sched::plan_depth_first_blocks(N, options.order, jobs,
                                               plan_options);

  // Every worker records into a collector of its own, merged into the
  // caller's after the pool drains (the bitmaps are disjoint: every
  // combination belongs to one shard).  The plan is immutable and shared
  // without locks.
  std::vector<Worker> workers(static_cast<std::size_t>(jobs));
  SummaryCollector* const collector = ctx ? ctx->collector : nullptr;
  auto start_worker = [&](int w) {
    Worker& slot = workers[static_cast<std::size_t>(w)];
    slot.driver = std::make_unique<Driver>(basis, options, &token);
    if (!ctx) return;
    if (collector)
      slot.collector = std::make_unique<SummaryCollector>(N, options.order);
    slot.driver->set_incremental(ctx->plan, slot.collector.get());
  };

  // The deterministic merge state: workers emit one PartialReport per
  // shard and the assembler folds each in as it completes (order-minimal
  // failure, merged union-check store) — the fold is associative, so the
  // completion order the pool happens to produce cannot show in the result.
  std::mutex merge_mu;
  ReportAssembler assembler(basis, options);
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> abandoned{0};
  // The first combination, in search order, that a skipped or stopped
  // shard left unchecked (under merge_mu): the run was cut short iff it
  // comes before the witness, or there is no witness.
  std::optional<std::vector<int>> unchecked;
  auto note_unchecked = [&](std::vector<int> combo) {
    std::lock_guard<std::mutex> lk(merge_mu);
    if (!unchecked || combo_before(combo, *unchecked, largest))
      unchecked = std::move(combo);
  };

  // Consulted once the token fires: true while `combo` is ordered before
  // the best known failure, i.e. checking it can still change the witness.
  // With no failure known the signal came from outside (the caller's
  // token), and nothing is relevant any more.
  auto still_relevant = [&](const std::vector<int>& combo) {
    std::lock_guard<std::mutex> lk(merge_mu);
    return assembler.has_failure() &&
           combo_before(combo, assembler.failure_combo(), largest);
  };

  if (options.progress)
    options.progress->start(count_combinations_up_to(N, options.order));
  sched::Pool pool(jobs);
  const sched::PoolStats pool_stats = pool.run(
      shards.size(), [&](int w, std::size_t task) {
        Worker& slot = workers[static_cast<std::size_t>(w)];
        if (!slot.driver) start_worker(w);
        const sched::Shard& shard = shards[task];
        // Claiming a whole shard is pointless once its first combination is
        // no longer relevant; skip it outright.
        if (token.cancelled()) {
          std::vector<int> first =
              sched::shard_combination(shard, N, options.order, shard.begin);
          if (!still_relevant(first)) {
            skipped.fetch_add(1, std::memory_order_relaxed);
            token.acknowledge();
            note_unchecked(std::move(first));
            return;
          }
        }
        PartialReport part;
        slot.driver->run_shard_partial(shard, still_relevant, part);
        ++slot.shards;
        if (!part.complete) {
          abandoned.fetch_add(1, std::memory_order_relaxed);
          note_unchecked(sched::shard_combination(shard, N, options.order,
                                                  part.covered_end));
        }
        const bool failed = part.has_failure;
        {
          std::lock_guard<std::mutex> lk(merge_mu);
          assembler.add(std::move(part));
        }
        if (failed) token.cancel();
      });
  if (options.progress) options.progress->stop();

  const bool interrupted =
      unchecked && (!assembler.has_failure() ||
                    combo_before(*unchecked, assembler.failure_combo(),
                                 largest));
  VerifyResult result = assembler.finalize(&token, interrupted);
  VerifyStats& s = result.stats;
  if (options.jobs != 1) {
    s.parallel.jobs = jobs;
    // Every engine shares the one Basis; the frozen forest replaced the
    // per-worker unfolding replays, so these are constants, kept as report
    // fields (and test assertions) rather than run-dependent state.
    s.parallel.shared_basis = true;
    s.parallel.replays = 0;
    s.parallel.shards_total = shards.size();
    s.parallel.shards_stolen = pool_stats.tasks_stolen;
    s.parallel.shards_skipped = skipped.load(std::memory_order_relaxed);
    s.parallel.shards_abandoned = abandoned.load(std::memory_order_relaxed);
    s.parallel.cancel_latency = token.max_ack_latency();
    s.parallel.workers.resize(static_cast<std::size_t>(jobs));
  }
  overlay_workers(workers, options, s);
  if (collector)
    for (const Worker& w : workers)
      if (w.collector) collector->merge_from(*w.collector);
  if (ctx && ctx->deps_out) ctx->deps_out->merge_from(assembler.take_qinfo());
  return result;
}

VerifyResult verify_prepared(const circuit::Unfolded& unfolded,
                             const ObservableSet& observables,
                             const VerifyOptions& options) {
  check_order(options);
  return verify_basis(build_basis(unfolded, observables, options.engine),
                      options);
}

std::shared_ptr<const Basis> build_gadget_basis(const circuit::Gadget& gadget,
                                                const VerifyOptions& options) {
  // A COEF run right-sizes the unfolding manager before a Basis exists,
  // from netlist structure alone (verify/portfolio.h).
  const int unfold_bits = unfold_cache_bits(gadget, options);
  circuit::Unfolded unfolded =
      circuit::unfold(gadget, unfold_bits, options.var_order);
  if (options.sift_after_unfold) unfolded.manager->reorder_sift();
  const ObservableSet obs =
      build_observables(gadget, unfolded, options.probes);
  return build_basis(unfolded, obs, options.engine);
}

VerifyResult verify(const circuit::Gadget& gadget, const VerifyOptions& options,
                    sched::CancelToken* cancel) {
  check_order(options);
  return verify_basis(build_gadget_basis(gadget, options), options, cancel);
}

}  // namespace sani::verify
