#include "verify/engine.h"

#include <stdexcept>
#include <utility>

#include "obs/progress.h"
#include "sched/cancel.h"
#include "util/combinations.h"
#include "verify/driver.h"
#include "verify/incremental.h"
#include "verify/parallel.h"
#include "verify/portfolio.h"

namespace sani::verify {

VerifyResult verify_basis(std::shared_ptr<const Basis> basis,
                          const VerifyOptions& options,
                          sched::CancelToken* cancel,
                          const IncrementalContext* ctx) {
  if (options.order < 1)
    throw std::invalid_argument("verify: order must be >= 1");
  if (options.engine == EngineKind::kAuto) {
    // Resolve the portfolio choice before any engine-dependent construction:
    // the Driver holds the options by reference and the backend registry has
    // no kAuto entry, so an unresolved kAuto must never reach either.
    PortfolioStats pstats;
    const VerifyOptions resolved = resolve_portfolio(*basis, options, &pstats);
    VerifyResult result =
        verify_basis(std::move(basis), resolved, cancel, ctx);
    result.stats.portfolio = pstats;
    return result;
  }
  if (options.jobs != 1) {
    // The Basis is manager-independent for every engine (the ADD engines'
    // diagram material is frozen inside it), so a pre-built — or
    // deserialized — Basis is no obstacle to parallel execution.
    return verify_parallel_basis(std::move(basis), options, cancel, ctx);
  }
  // The Driver arms the time-limit deadline only on its *internal* token;
  // an external token carries the caller's cancel signal and needs the
  // deadline armed here.
  if (cancel && options.time_limit > 0)
    cancel->set_deadline_after(options.time_limit);
  Driver driver(basis, options, cancel);
  if (ctx)
    driver.set_incremental(ctx->plan, ctx->collector);
  driver.count_basis_build();
  if (options.progress)
    options.progress->start(count_combinations_up_to(
        static_cast<int>(basis->size()), options.order));
  VerifyResult result = driver.run();
  if (options.progress) options.progress->stop();
  if (ctx && ctx->deps_out) ctx->deps_out->merge_from(driver.take_qinfo());
  return result;
}

VerifyResult verify_basis(std::shared_ptr<const Basis> basis,
                          const VerifyOptions& options,
                          sched::CancelToken* cancel) {
  return verify_basis(std::move(basis), options, cancel, nullptr);
}

VerifyResult verify_prepared(const circuit::Unfolded& unfolded,
                             const ObservableSet& observables,
                             const VerifyOptions& options) {
  if (options.order < 1)
    throw std::invalid_argument("verify: order must be >= 1");
  return verify_basis(build_basis(unfolded, observables, options.engine),
                      options);
}

VerifyResult verify_prepared(const circuit::Unfolded& unfolded,
                             const ObservableSet& observables,
                             const VerifyOptions& options,
                             const PrepareFn& /*replay*/) {
  return verify_prepared(unfolded, observables, options);
}

VerifyResult verify(const circuit::Gadget& gadget,
                    const VerifyOptions& options) {
  // Under the portfolio the unfolding manager is right-sized too — before a
  // Basis exists, from netlist structure alone.  Forced engines keep the
  // configured size (the baseline columns stay comparable).
  const int unfold_bits =
      options.engine == EngineKind::kAuto
          ? suggest_unfold_cache_bits(gadget, options.cache_bits)
          : options.cache_bits;
  circuit::Unfolded unfolded =
      circuit::unfold(gadget, unfold_bits, options.var_order);
  if (options.sift_after_unfold) unfolded.manager->reorder_sift();
  ObservableSet obs = build_observables(gadget, unfolded, options.probes);
  return verify_prepared(unfolded, obs, options);
}

}  // namespace sani::verify
