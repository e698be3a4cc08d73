#pragma once
// Mergeable per-shard verification results.
//
// A PartialReport is the complete, self-contained outcome of checking one
// shard (sched::Shard) against a prepared verify::Basis: the
// shard's locally-first failure (if any), its counter deltas, and the
// union-check dependency masks of its passing combinations.  Crucially it
// is a pure function of (Basis content, semantic options, shard) — a shard
// runs to its own end or its own first failure, never cut short by another
// shard's findings — so producing the same shard twice yields the same
// partial, whoever (and whichever engine) ran it.  That purity is what
// makes the cross-process checkpoint protocol (store/manifest.h) safe
// against duplicated claims and what makes the merge below associative.
//
// ReportAssembler folds partials in any order into the canonical merged
// state: the order-minimal failing combination under the search order's
// total order (combo_before), summed counters, and one QInfoStore holding
// every recorded dependency entry.  Two consumers:
//
//  * verify_basis (verify/engine.cpp), the one in-process pipeline at every
//    worker count — workers emit one partial per shard and the pipeline
//    folds them as they complete;
//  * the manifest-driven scan (store/scan.h) — partials are checkpointed
//    to disk (SANIPAR framing) and finalize() renders the same canonical
//    report from whatever mixture of processes, worker counts and engines
//    produced them.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/shard.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/checker.h"
#include "verify/qinfo.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {

/// The search order's total order on combinations (depth-first: plain
/// lexicographic vector order; largest-first: sizes descending, then
/// lexicographic).  The merged witness is the minimum failing combination
/// under this order — the first failure a walk in that order meets.
bool combo_before(const std::vector<int>& a, const std::vector<int>& b,
                  bool largest_first);

/// 1-based position of `combo` in the search order over every combination
/// of 1..order of n observables: the number of combinations a walk in that
/// order checks up to and including `combo` (saturating).
std::uint64_t search_position(int n, int order, const std::vector<int>& combo,
                              bool largest_first);

/// The composition of `combo` (observable indices into the basis): a pure
/// function of the observables' kinds, so the union pass and the scan share
/// one definition and no store keeps a copy per entry.
RowContext row_context(const Basis& basis, const std::vector<int>& combo);

/// The set-level union pass over a dependency store: for every recorded
/// combination Q, the union U(Q) of V over all recorded sub-combinations
/// of Q must satisfy the notion's set-level condition.  U is built by the
/// subset-zeta recurrence U(Q) = V(Q) | U(Q minus q_1) | ... | U(Q minus
/// q_k), size by size in lexicographic rank order (a missing V counts as
/// empty), so each Q costs k lookups instead of 2^k - 1.  The reported
/// witness is the first violating Q in lexicographic vector order, however
/// the store was populated.  Pure mask arithmetic end to end — no backend,
/// no DD manager — which is what lets ReportAssembler::finalize run it
/// without thawing the frozen forest.  `cancel` (optional) turns a fired
/// deadline into result.timed_out.
void union_pass(const Basis& basis, const Checker& checker,
                const QInfoStore& qinfo, sched::CancelToken* cancel,
                VerifyResult& result);

/// Outcome of one shard.  Engine-invariant fields (the failure, the
/// dependency masks, `combinations`) are what the deterministic merge
/// consumes; the counter/timing fields ride along for the informative
/// (non-deterministic) report and are zeroed by --deterministic-report.
///
/// A depth-first block (k == 0, in-process only: checkpoints persist rank
/// ranges) holds several sizes: its begin/end/covered_end/fail_rank are
/// positions in the depth-first order, and dep_sizes[i] is the size of
/// dependency record i (whose dep_ranks entry stays a rank of that size).
struct PartialReport {
  int k = 0;                     // combination size of the shard; 0: block
  std::uint64_t begin = 0;       // planned rank range [begin, end)
  std::uint64_t end = 0;
  /// Ranks actually checked: [begin, covered_end).  Equal to `end` when the
  /// shard ran to completion, fail_rank + 1 when it stopped at its local
  /// failure, less when it was abandoned mid-shard (in-process cancellation
  /// only — checkpoints always persist complete shards).
  std::uint64_t covered_end = 0;
  /// True when the shard's outcome is final: full coverage, or coverage up
  /// to and including its locally-first failure.
  bool complete = false;

  bool has_failure = false;
  std::uint64_t fail_rank = 0;  // rank of the locally-first failing combo
  Mask fail_alpha;
  std::string fail_reason;

  std::uint64_t combinations = 0;  // checked in this shard
  std::uint64_t coefficients = 0;
  CacheStats prefix_memo;
  CacheStats region_cache;
  double convolution_seconds = 0.0;
  double verification_seconds = 0.0;

  /// Union-check dependency records of the shard's passing combinations,
  /// rank-ascending (shards check in rank order): combination dep_ranks[i]
  /// has the per-secret masks dep_masks[i * S, (i + 1) * S) for the basis'
  /// S secrets (its RowContext is recomputed from the combination where
  /// needed).  Flat, so recording one allocates nothing of its own.
  std::vector<std::uint64_t> dep_ranks;
  std::vector<Mask> dep_masks;
  std::vector<std::uint8_t> dep_sizes;  // blocks only
};

/// Deterministic, associative fold over PartialReports.
///
/// add() is commutative and associative in the merged *semantic* state:
/// the best failure is the minimum of an associative min (combo_before is a
/// strict total order on combinations), counters are sums, and the
/// dependency entries of distinct shards are disjoint (each combination
/// belongs to exactly one shard) and land at their (k, rank) slot of the
/// dense store, so insertion order cannot change what the union pass
/// reads.  Hence any completion order, worker count or engine mixture
/// finalizes to the same report.
class ReportAssembler {
 public:
  /// `options` are the canonical semantic options of the scan (notion,
  /// order, engine, union_check, search_order...); held by value so the
  /// assembler can outlive the caller's copy.
  ReportAssembler(std::shared_ptr<const Basis> basis, VerifyOptions options);
  ~ReportAssembler();

  /// Folds one partial in.  Not thread-safe; callers serialize (the
  /// in-process controller folds under its merge mutex).
  void add(PartialReport part);

  /// Overrides the basis-derived report fields (frozen forest size, one-time
  /// base coefficients and build time) with a canonical snapshot.  The
  /// manifest scan records these at plan time, so a worker that rebuilt the
  /// basis with wider needs (a different engine's material enlarges the
  /// frozen forest) cannot perturb the finalized report.
  void set_basis_stats(std::uint64_t frozen_nodes, std::uint64_t frozen_bytes,
                       std::uint64_t base_coefficients, double build_seconds);

  bool has_failure() const { return best_.has_value(); }
  /// The order-minimal failing combination so far (valid when
  /// has_failure()).
  const std::vector<int>& failure_combo() const { return best_->combo; }
  /// The witness of the order-minimal failure, decoded against the basis.
  CounterExample failure_counterexample() const;

  /// Moves the merged dependency store out, leaving the assembler's empty.
  QInfoStore take_qinfo() {
    return std::exchange(qinfo_, QInfoStore(static_cast<int>(basis_->size())));
  }

  std::size_t parts() const { return parts_; }

  /// Renders the canonical merged result: counters summed, the one-time
  /// basis build credited once, the canonical phase set (thaw for the ADD
  /// engines / base / convolution / verification / union) independent of
  /// which engines produced the partials, and — when every combination
  /// passed and the notion has a set-level condition — the union pass over
  /// the merged dependency store.  An insecure per-row verdict counts what
  /// a walk in the search order checks: `combinations` is the witness's
  /// search_position() and `qinfo_entries` the passing combinations before
  /// it, however many shards ran past the witness.  The result is a pure
  /// function of the folded partials and the basis content (timing fields
  /// aside, which --deterministic-report zeroes), so any run that covered
  /// the same combinations finalizes byte-identically.
  ///
  /// `interrupted` says the run left a combination unchecked that the
  /// verdict depends on: any, when no failure was found (the result is
  /// timed out), or one ordered before the witness (the verdict stays
  /// insecure but counts what really ran).  `cancel` (optional) is polled
  /// for its deadline inside the union pass.
  VerifyResult finalize(sched::CancelToken* cancel = nullptr,
                        bool interrupted = false);

 private:
  struct BestFailure {
    std::vector<int> combo;
    Mask alpha;
    std::string reason;
  };

  struct BasisStats {
    std::uint64_t frozen_nodes;
    std::uint64_t frozen_bytes;
    std::uint64_t base_coefficients;
    double build_seconds;
  };

  std::shared_ptr<const Basis> basis_;
  VerifyOptions options_;
  std::optional<BasisStats> basis_stats_;
  std::optional<BestFailure> best_;
  QInfoStore qinfo_;
  std::uint64_t combinations_ = 0;
  std::uint64_t coefficients_ = 0;
  CacheStats prefix_memo_;
  CacheStats region_cache_;
  double convolution_seconds_ = 0.0;
  double verification_seconds_ = 0.0;
  std::size_t parts_ = 0;
};

}  // namespace sani::verify
