#pragma once
// Flat-spectrum backend (MAP, MAPI and COEF engines).
//
// Convolution runs on the shared Basis' flat sorted spectra through a
// ConvolutionArena: cross products are emitted into reusable scratch,
// sorted, and collapsed into per-depth row-set slots, so the steady-state
// combination scan performs zero heap allocations (ArenaStats makes the
// claim testable).  The three engines differ only in the row check:
//  * MAP — the scan product with the materialized ForbiddenRegion, each
//    coordinate resolved by binary search over the sorted row;
//  * MAPI — the paper's symbolic ADD product (needs the manager; the Driver
//    has already thawed the Basis' frozen base-spectrum ADDs into it, so
//    the per-row ADD rebuilds hit a warm unique table);
//  * COEF — Checker::coefficient_violates at each nonzero coordinate of the
//    row: T(alpha, rho = 0) is a popcount predicate, so a row costs
//    O(nonzeros) with neither a region nor a manager.

#include "spectral/flat_spectrum.h"
#include "verify/backends/backend.h"
#include "verify/prefix_memo.h"

namespace sani::verify {

/// How MapBackend::check_rows decides a row (see the file comment).
enum class MapCheck { kRegionScan, kAdd, kCoefficients };

class MapBackend : public Backend {
 public:
  MapBackend(const BackendContext& ctx, MapCheck check);

  void prepare() override;
  void push(const std::vector<int>& path) override;
  void pop() override;
  std::optional<Mask> check_rows(const RowCheckQuery& q) override;
  void accumulate_deps(std::span<Mask> V) override;

 private:
  using RowSet = spectral::FlatRowSet;

  /// One level of the combination stack.  `rows` always points at the live
  /// row set; `owned` keeps memo-shared sets alive (null for the per-depth
  /// reusable slots, whose storage the backend owns).
  struct Level {
    const RowSet* rows = nullptr;
    std::shared_ptr<const RowSet> owned;
  };

  /// Convolves every (current row x base subset) pair into `out`.
  std::uint64_t build_level(const RowSet& cur,
                            const std::vector<spectral::FlatSpectrum>& base,
                            RowSet& out);

  std::shared_ptr<const Basis> basis_;
  dd::Manager* manager_;  // MAPI verification only
  MapCheck check_;
  PhaseTimers& timers_;
  std::uint64_t& coefficients_;
  int order_;
  PrefixMemo<RowSet> memo_;
  bool memo_enabled_;
  spectral::ConvolutionArena arena_;
  RowSet root_;                     // depth 0: the constant-zero spectrum
  std::vector<RowSet> slots_;       // per-depth reusable row sets
  std::vector<Level> stack_;
  // MAPI per-row ADD rebuild scratch, reused across all rows and
  // combinations (growth credited to the arena stats).
  std::vector<std::pair<Mask, std::int64_t>> add_scratch_;
};

}  // namespace sani::verify
