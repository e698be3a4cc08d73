#pragma once
// The verification pipeline (Fig. 5 of the paper).
//
// Unfold the circuit (probes as BDDs) -> build the observable universe and
// the shared Basis (base spectra, frozen diagrams) -> enumerate
// combinations of outputs/probes up to size d -> compute the Walsh
// spectrum of every XOR-combination (convolution of base spectra, or a
// direct Fujita transform) -> test the interference predicate -> run the
// set-level union pass.  Four interchangeable engines implement the
// representation choices compared in Tables I/II:
//
//   LIL    — list-of-lists spectra, list-scan verification  (TCHES'20 [11])
//   MAP    — hash-map spectra, map-scan verification
//   MAPI   — hash-map convolution + ADD verification        (the paper)
//   FUJITA — per-combination Fujita transform + ADD verification
//
// All four return identical verdicts (asserted by the cross-engine tests);
// they differ only in where the time goes, which is exactly what the
// paper's evaluation measures.
//
// There is one execution path for every worker count: verify_basis plans
// the combination space into shards that slice the search order in plan
// order (depth-first blocks, or rank ranges of one size for largest-first;
// sched/shard.h), runs them on a work-stealing pool (sched::Pool) with one
// Driver per worker, folds each shard's PartialReport into a
// ReportAssembler and renders the report with ReportAssembler::finalize().
// `--jobs 1` is one worker, run on the calling thread: it walks the search
// order itself and stops at the first failure.  The reported witness is the
// smallest failing combination in the configured search order, independent
// of the worker count and of completion order; a shared sched::CancelToken
// propagates the first counterexample and the --time-limit deadline
// cooperatively.
// Every engine shares the one prepared Basis: the ADD engines' workers thaw
// its frozen forest into a private dd::Manager (the manager's GC and
// reordering safe points are single-threaded), and no worker ever replays
// the unfolding.

#include <memory>

#include "circuit/spec.h"
#include "circuit/unfold.h"
#include "verify/basis.h"
#include "verify/observables.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {

struct IncrementalContext;

/// The front half of verify(): unfolds `gadget` (under `auto` with a
/// right-sized manager, see suggest_unfold_cache_bits), builds its
/// observable universe and the shared Basis for options.engine.  The
/// artifact store's cold path builds its Basis here too.
std::shared_ptr<const Basis> build_gadget_basis(const circuit::Gadget& gadget,
                                                const VerifyOptions& options);

/// Unfolds `gadget`, builds the observable universe and decides the notion.
/// `cancel` is as for verify_basis.
VerifyResult verify(const circuit::Gadget& gadget, const VerifyOptions& options,
                    sched::CancelToken* cancel = nullptr);

/// Same, over a pre-built unfolding and observable set (used to analyse
/// fixed probe configurations such as the Fig. 1 composition example, and
/// to amortize unfolding across engines in the benchmarks).
VerifyResult verify_prepared(const circuit::Unfolded& unfolded,
                             const ObservableSet& observables,
                             const VerifyOptions& options);

/// Runs verification over a prepared shared Basis — the bottom half of the
/// pipeline, and the warm-start entry point of the artifact store
/// (src/store): a Basis deserialized from disk goes straight to the shard
/// workers.  No parse, unfold, basis_build or freeze happens here; verdict,
/// witness and stats are identical to a cold run over the same Basis
/// content.  options.jobs selects the worker count (0 = hardware
/// concurrency); the report's "N jobs" token and `parallel` section appear
/// only when options.jobs != 1.
///
/// `cancel` optionally supplies an external cancellation token (the sanid
/// daemon cancels abandoned requests through it); the options.time_limit
/// deadline is armed on it, and cancel()ing it stops the run cooperatively
/// at the next combination boundary.  nullptr uses an internal token.
///
/// `ctx` threads the diff-aware incremental hooks through to the workers
/// (see verify/incremental.h): every worker replays against ctx->plan,
/// outcomes are recorded into ctx->collector, and the merged union-check
/// store moves into ctx->deps_out.  nullptr (or an all-null ctx) is a plain
/// cold scan.  The artifact store's verify_with_store is the production
/// caller.
VerifyResult verify_basis(std::shared_ptr<const Basis> basis,
                          const VerifyOptions& options,
                          sched::CancelToken* cancel = nullptr,
                          const IncrementalContext* ctx = nullptr);

}  // namespace sani::verify
