#pragma once
// The verification execution core (internal header).
//
// A Driver runs one engine backend over a shared, immutable verify::Basis
// and checks XOR-combinations of observables against the notion's spectral
// predicate, one shard (a contiguous rank range of one combination size,
// or a contiguous block of the depth-first order) at a time:
// run_shard_partial() turns a sched::Shard into a PartialReport that a
// ReportAssembler folds (verify/partial.h).  It has two callers, and
// both are shard workers: verify_basis (verify/engine.cpp), whose pool runs
// one Driver per worker (`--jobs 1` is one worker), and the manifest scan
// (store/scan.cpp), whose claiming threads run one each.
//
// Every engine reads the one prepared Basis; for the ADD engines
// (MAPI/FUJITA) the Driver additionally owns a private dd::Manager and
// thaws the Basis' frozen forest into it at construction
// (Manager::import_forest) — no unfolding replay anywhere.
//
// Cancellation is cooperative: the sched::CancelToken (external, or an
// internal one armed from VerifyOptions::time_limit) is polled at every
// combination.  All mutable state is confined to the Driver; the Basis is
// read-only, so Drivers over one Basis run concurrently without sharing.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "dd/add.h"
#include "obs/metrics.h"
#include "sched/cancel.h"
#include "sched/shard.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/incremental.h"
#include "verify/observables.h"
#include "verify/predicate.h"
#include "verify/rowcheck.h"
#include "verify/types.h"

namespace sani::verify {

class Backend;
struct PartialReport;

class Driver {
 public:
  /// The Basis is the complete verification input for every engine.  When
  /// the engine's registry entry has needs_thaw (MAPI/FUJITA) the Driver
  /// creates a private dd::Manager and thaws the Basis' frozen forest into
  /// it here; the scan engines never touch a manager.  `cancel` may be
  /// null: the driver then arms an internal token from options.time_limit.
  /// An external token is polled but never armed.
  Driver(std::shared_ptr<const Basis> basis, const VerifyOptions& options,
         sched::CancelToken* cancel = nullptr);
  ~Driver();

  /// Arms the diff-aware scan: combinations `plan` classifies as clean are
  /// replayed instead of checked (null plan = cold scan), and every
  /// per-combination outcome is recorded into `collector` (null = no
  /// recording).  Either may be set independently; call before
  /// run_shard_partial().
  void set_incremental(const IncrementalPlan* plan,
                       SummaryCollector* collector) {
    plan_ = plan;
    collector_ = collector;
  }

  /// Checks lexicographic ranks [shard.begin, shard.end) of the size-k
  /// combinations — or, for a depth-first block (k == 0), those positions
  /// of the depth-first order — into `part`: the shard's first failure, its
  /// union-check entries, and the counters and phase seconds it
  /// contributed.  Stops at
  /// the shard's first failure, on deadline expiry, or — once the cancel
  /// token fires — at the first combination for which `still_relevant`
  /// returns false (a null predicate never stops); the last two leave
  /// part.complete false.  The verify pipeline passes "is this combination
  /// still ordered before the best known failure?", which keeps the merged
  /// witness deterministic.  With a null predicate and an unexpired token
  /// the partial is complete: a pure function of (basis, options, shard),
  /// whatever ran before it on this driver.
  void run_shard_partial(const sched::Shard& shard,
                         const std::function<bool(const std::vector<int>&)>&
                             still_relevant,
                         PartialReport& part);

  /// Counters accumulated by this driver over every shard it ran, with the
  /// private manager's figures (dd_*), the convolution arena's (arena_*)
  /// and the thaw cost filled in; all of those stay zero for the scan
  /// engines, which own no manager.
  VerifyStats stats() const;

 private:
  struct CheckFailure {
    Mask alpha;
    std::string reason;
  };

  /// Builds the backend (and, for the ADD engines, its manager-bound base).
  /// Idempotent; run_shard_partial() calls it on first use.
  void prepare();

  /// Appends a zeroed dependency-mask record for the passing combination
  /// of rank rank_ to the running shard's partial and returns its masks.
  std::span<Mask> add_dep();

  /// Checks the current path_ as one combination; failure data on failure.
  /// Ticks the progress meter, records the outcome into the collector and
  /// (when a metrics export was requested) samples the check latency into
  /// the per-rank histogram.
  std::optional<CheckFailure> check_current();
  std::optional<CheckFailure> check_current_impl();

  /// check_current() for an explicit combination, with the diff-aware
  /// classification in front: clean combinations replay their recorded
  /// verdict without touching the backend; dirty ones sync the prefix
  /// stack and check for real.
  std::optional<CheckFailure> check_combo(const std::vector<int>& combo);

  /// Rebuilds the backend stack so that path_ == combo, popping/pushing
  /// only the differing suffix (prefix sharing).
  void sync_path(const std::vector<int>& combo);

  /// Imports basis_->frozen into manager_ and wraps the roots in handles
  /// (records thaw_seconds_); empty for the scan engines.
  std::vector<dd::Add> thaw_roots();

  std::shared_ptr<const Basis> basis_;
  const VerifyOptions& options_;
  std::unique_ptr<dd::Manager> manager_;  // ADD engines: private thaw target
  double thaw_seconds_ = 0.0;
  std::vector<dd::Add> thawed_;  // handles over the thawed frozen roots
  std::unique_ptr<PredicateBuilder> preds_;
  RowCheck rowcheck_;
  std::unique_ptr<Backend> backend_;
  bool prepared_ = false;
  std::vector<int> path_;
  // Resolved per-rank latency histogram handles ("verify.check_ns.k<k>"),
  // indexed by combination size; filled lazily so the registry mutex stays
  // out of the enumeration loop.
  std::vector<obs::Histogram*> rank_hist_;
  PartialReport* part_ = nullptr;  // the running shard's partial
  std::uint64_t rank_ = 0;         // rank of the combination being checked
  std::uint8_t size_ = 0;          // and its size (blocks record it)
  const IncrementalPlan* plan_ = nullptr;
  SummaryCollector* collector_ = nullptr;
  std::vector<int> plan_scratch_;
  spectral::ArenaStats arena_stats_;
  VerifyStats stats_;
  sched::CancelToken own_cancel_;
  sched::CancelToken* cancel_;
};

}  // namespace sani::verify
