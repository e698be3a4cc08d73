#pragma once
// The `--engine auto` front-end.
//
// `auto` is COEF (resolve_engine in verify/types.h): the per-coefficient
// row check costs O(nonzeros) per row with neither a materialized region
// nor a manager, and the per-row ledger (DESIGN.md Sec. 12) shows it within
// 10% of the best forced engine on every registry row, so there is no
// engine choice to model.  The four paper engines stay reachable by name as
// the Table I/II and Fig. 7 baselines.
//
// What remains is the unfolding manager's computed-table sizing, which a
// COEF run needs before a Basis exists.

#include "circuit/spec.h"
#include "verify/types.h"

namespace sani::verify {

/// Computed-table size for the unfolding manager of a COEF run, from the
/// netlist's structural stats alone, bounded by the configured `ceiling`
/// (the user's --cache-bits stays an upper bound).
int suggest_unfold_cache_bits(const circuit::Gadget& gadget, int ceiling);

/// The unfolding table size a run with `options` uses: the suggested size
/// when it executes COEF (`auto` or `coef`), the configured size for the
/// four paper engines, which keeps their baseline columns comparable.
int unfold_cache_bits(const circuit::Gadget& gadget,
                      const VerifyOptions& options);

}  // namespace sani::verify
