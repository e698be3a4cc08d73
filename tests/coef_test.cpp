// Tests of the COEF engine (MapBackend's per-coefficient row check), the
// engine `--engine auto` resolves to.
//
// COEF decides each row at its own nonzero coordinates with
// Checker::coefficient_violates and returns the row's smallest violating
// alpha — the coordinate MAP's region scan reports.  So on every input COEF
// and MAP must agree on the verdict, the counterexample (observables, alpha
// and reason) and the `combinations` count, whatever the notion, counting
// mode, probe model, search order or worker count.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/observables.h"

namespace sani::verify {
namespace {

constexpr Notion kAllNotions[] = {Notion::kProbing, Notion::kNI, Notion::kSNI,
                                  Notion::kPINI};

std::string outcome(const VerifyResult& r) {
  std::string s = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  s += " combinations=" + std::to_string(r.stats.combinations);
  if (r.counterexample) {
    s += " |";
    for (const auto& o : r.counterexample->observables) s += " " + o;
    s += " | alpha=" + r.counterexample->alpha.to_string();
    s += " | " + r.counterexample->reason;
  }
  return s;
}

/// One Basis per (gadget, probe model) serves both engines: MAP and COEF
/// need the same flat spectra.
std::shared_ptr<const Basis> basis_for(const std::string& name, bool robust) {
  static std::map<std::pair<std::string, bool>, std::shared_ptr<const Basis>>
      cache;
  auto& slot = cache[{name, robust}];
  if (!slot) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Unfolded u = circuit::unfold(g);
    ProbeModelOptions probes;
    probes.glitch_robust = robust;
    slot = build_basis(u, build_observables(g, u, probes), EngineKind::kMAP);
  }
  return slot;
}

/// Runs COEF and `reference` over one shared Basis and compares their
/// outcomes; `with_alpha` false drops the witness coordinate, which MAPI's
/// any_sat picks by its own rule.
void expect_coef_matches(const std::string& name, VerifyOptions opt,
                         EngineKind reference = EngineKind::kMAP) {
  const bool with_alpha = reference == EngineKind::kMAP;
  opt.engine = reference;
  // A MAPI Basis carries the flat spectra COEF runs on as well.
  const std::shared_ptr<const Basis> basis =
      reference == EngineKind::kMAP
          ? basis_for(name, opt.probes.glitch_robust)
          : build_gadget_basis(gadgets::by_name(name), opt);
  VerifyResult ref = verify_basis(basis, opt);
  opt.engine = EngineKind::kCOEF;
  VerifyResult coef = verify_basis(basis, opt);
  if (!with_alpha && ref.counterexample && coef.counterexample)
    coef.counterexample->alpha = ref.counterexample->alpha;
  EXPECT_EQ(outcome(coef), outcome(ref))
      << name << "@" << opt.order << " " << notion_name(opt.notion)
      << (opt.search_order == SearchOrder::kLargestFirst ? " largest-first"
                                                         : " depth-first")
      << " jobs " << opt.jobs << (opt.joint_share_count ? " joint" : "")
      << (opt.probes.glitch_robust ? " robust" : "") << " vs "
      << engine_name(reference);
}

/// The registry grid for one gadget: orders 1-2, all notions, both search
/// orders, one and four workers (`one_worker` false: four only).
void expect_coef_matches_on(const std::string& name, bool one_worker,
                            EngineKind reference_at_order_2) {
  for (int order : {1, 2})
    for (Notion notion : kAllNotions)
      for (SearchOrder search :
           {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst})
        for (int jobs : {1, 4}) {
          if (jobs == 1 && !one_worker) continue;
          VerifyOptions opt;
          opt.notion = notion;
          opt.order = order;
          opt.search_order = search;
          opt.jobs = jobs;
          expect_coef_matches(
              name, opt, order == 2 ? reference_at_order_2 : EngineKind::kMAP);
        }
}

TEST(Coef, MatchesMapAcrossTheRegistry) {
  for (const std::string& name : gadgets::all_names())
    if (name != "keccak-2" && name != "keccak-3")
      expect_coef_matches_on(name, true, EngineKind::kMAP);
}

// MAP scans ~2^#shares region cells per row, which makes the keccak rows
// its slow ones (seconds per secure run): they run at four workers only,
// and keccak-3 at order 2 (a 2^15-cell region per row, minutes per notion)
// is compared with MAPI instead, witness coordinate aside.
TEST(Coef, MatchesMapOnTheKeccakRows) {
  expect_coef_matches_on("keccak-2", false, EngineKind::kMAP);
  expect_coef_matches_on("keccak-3", false, EngineKind::kMAPI);
}

TEST(Coef, MatchesMapUnderJointCountingAndRobustProbes) {
  for (const char* name : {"isw-1", "dom-1", "trichina-1", "refresh-3",
                           "hpc1-1", "gf4mul-1"})
    for (int order : {1, 2}) {
      for (Notion notion : {Notion::kNI, Notion::kSNI}) {
        VerifyOptions opt;
        opt.notion = notion;
        opt.order = order;
        opt.joint_share_count = true;
        expect_coef_matches(name, opt);
      }
      for (Notion notion : kAllNotions) {
        VerifyOptions opt;
        opt.notion = notion;
        opt.order = order;
        opt.probes.glitch_robust = true;
        expect_coef_matches(name, opt);
      }
    }
}

// COEF's `coefficients` counts convolved coefficients only: the row check
// adds nothing, so on a secure gadget (every combination convolved) the
// count cannot depend on the notion or on the union pass.
TEST(Coef, CoefficientCountIsNotionAndUnionIndependent) {
  for (const char* name : {"dom-2", "isw-2"}) {
    std::vector<std::uint64_t> counts;
    for (Notion notion : {Notion::kNI, Notion::kSNI})
      for (bool union_check : {true, false}) {
        VerifyOptions opt;
        opt.engine = EngineKind::kCOEF;
        opt.notion = notion;
        opt.order = 2;
        opt.union_check = union_check;
        const VerifyResult r = verify(gadgets::by_name(name), opt);
        ASSERT_TRUE(r.secure) << name << " " << notion_name(notion);
        counts.push_back(r.stats.coefficients);
      }
    for (std::uint64_t c : counts) EXPECT_EQ(c, counts.front()) << name;
    EXPECT_GT(counts.front(), 0u) << name;
  }
}

// No manager, no thaw, no materialized region, no region-cache traffic.
TEST(Coef, RunsWithoutManagerOrRegion) {
  VerifyOptions opt;
  opt.engine = EngineKind::kCOEF;
  opt.order = 2;
  const VerifyResult r = verify(gadgets::by_name("keccak-2"), opt);
  EXPECT_TRUE(r.secure);
  EXPECT_EQ(r.stats.frozen_nodes, 0u);
  EXPECT_EQ(r.stats.dd_cache_hits + r.stats.dd_cache_misses, 0u);
  EXPECT_EQ(r.stats.dd_peak_nodes, 0u);
  EXPECT_EQ(r.stats.dd_cache_bits, 0);
  EXPECT_EQ(r.stats.thaw_seconds, 0.0);
  EXPECT_EQ(r.stats.region_cache.hits + r.stats.region_cache.misses, 0u);
  EXPECT_GT(r.stats.arena_convolutions, 0u);
}

}  // namespace
}  // namespace sani::verify
