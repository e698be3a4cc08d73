// Tests of the `--engine auto` front-end (src/verify/portfolio.*): auto
// resolves to COEF on every input over a Basis that carries COEF's needs
// only, runs and renders exactly like `--engine coef`, and is
// observationally equivalent to every forced engine (same verdict and
// witness) across the full gadget registry and worker counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/checker.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/portfolio.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

constexpr EngineKind kForcedEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                         EngineKind::kMAPI,
                                         EngineKind::kFUJITA};

// Verdict + witness observable set.  The witness coordinate alpha is a
// representation detail that may legitimately differ between engines (see
// engine_test.cpp), so it is not part of the fingerprint.
std::string fingerprint(const VerifyResult& r) {
  std::string fp = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  if (r.counterexample) {
    fp += " |";
    for (const auto& o : r.counterexample->observables) fp += " " + o;
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Equivalence: auto == every forced engine, full registry, jobs 1/2/4
// (satellite 3).
// ---------------------------------------------------------------------------

void expect_auto_matches_forced(const std::string& name, int order,
                                std::initializer_list<int> jobs_grid) {
  circuit::Gadget g = gadgets::by_name(name);
  VerifyOptions base;
  base.notion = Notion::kSNI;
  base.order = order;

  for (int jobs : jobs_grid) {
    VerifyOptions auto_opt = base;
    auto_opt.engine = EngineKind::kAuto;
    auto_opt.jobs = jobs;
    const VerifyResult auto_result = verify(g, auto_opt);
    // The run record names the engine that executed: COEF.
    EXPECT_EQ(auto_result.stats.portfolio.chosen, EngineKind::kCOEF)
        << name << " jobs " << jobs;

    for (EngineKind engine : kForcedEngines) {
      VerifyOptions forced = base;
      forced.engine = engine;
      forced.jobs = jobs;
      const VerifyResult r = verify(g, forced);
      EXPECT_EQ(r.stats.portfolio.chosen, engine);
      EXPECT_EQ(fingerprint(auto_result), fingerprint(r))
          << name << " jobs " << jobs << " vs " << engine_name(engine);
    }
  }
}

// Order 1 keeps even the keccak-3/dom-4 rows fast enough to sweep the whole
// registry under every forced engine; the order-2 spot check below covers
// the multi-probe scan path on gadgets where all four engines stay quick.
TEST(Portfolio, AutoMatchesEveryForcedEngineAcrossRegistryAndJobs) {
  for (const std::string& name : gadgets::all_names())
    expect_auto_matches_forced(name, 1, {1, 2, 4});
}

TEST(Portfolio, AutoMatchesEveryForcedEngineAtHigherOrders) {
  for (const char* name : {"isw-2", "dom-2", "isw-3"})
    expect_auto_matches_forced(name, std::min(2, gadgets::security_level(name)),
                               {1, 4});
}

// ---------------------------------------------------------------------------
// Resolution: auto is COEF on every input, over a COEF-sized Basis.
// ---------------------------------------------------------------------------

TEST(Portfolio, AutoResolvesToCoefOnEveryInput) {
  for (const std::string& name : gadgets::all_names()) {
    circuit::Gadget g = gadgets::by_name(name);
    circuit::Unfolded u = circuit::unfold(g);
    ObservableSet obs = build_observables(g, u, {});
    std::shared_ptr<const Basis> basis =
        build_basis(u, obs, EngineKind::kAuto);
    // COEF's needs only: no sorted-list copies, nothing frozen to thaw.
    EXPECT_FALSE(basis->flat.empty()) << name;
    EXPECT_TRUE(basis->lil.empty()) << name;
    EXPECT_TRUE(basis->frozen.empty()) << name;

    // The same unfolding table as a forced `coef` run.
    VerifyOptions auto_opt;
    auto_opt.engine = EngineKind::kAuto;
    VerifyOptions coef_opt;
    coef_opt.engine = EngineKind::kCOEF;
    EXPECT_EQ(unfold_cache_bits(g, auto_opt), unfold_cache_bits(g, coef_opt))
        << name;
    EXPECT_EQ(unfold_cache_bits(g, auto_opt),
              suggest_unfold_cache_bits(g, auto_opt.cache_bits))
        << name;
  }
  EXPECT_EQ(resolve_engine(EngineKind::kAuto), EngineKind::kCOEF);
}

TEST(Portfolio, ResolveIsIdentityForForcedEngines) {
  const circuit::Gadget g = gadgets::by_name("keccak-2");
  for (EngineKind engine : kForcedEngines) {
    EXPECT_EQ(resolve_engine(engine), engine);
    // The paper engines keep the configured unfolding table.
    VerifyOptions opt;
    opt.engine = engine;
    opt.cache_bits = 18;
    EXPECT_EQ(unfold_cache_bits(g, opt), 18) << engine_name(engine);
  }
  EXPECT_EQ(resolve_engine(EngineKind::kCOEF), EngineKind::kCOEF);
}

TEST(Portfolio, SuggestedUnfoldCacheBitsRespectTheConfiguredCeiling) {
  for (const char* name : {"isw-1", "keccak-2"}) {
    circuit::Gadget g = gadgets::by_name(name);
    EXPECT_EQ(suggest_unfold_cache_bits(g, 18),
              suggest_unfold_cache_bits(g, 18))
        << name;
    for (int ceiling : {10, 14, 18, 24}) {
      const int unfold_bits = suggest_unfold_cache_bits(g, ceiling);
      EXPECT_GE(unfold_bits, 10) << name;
      EXPECT_LE(unfold_bits, std::max(10, ceiling)) << name;
    }
  }
}

// Small gadgets get an unfolding table well below the fixed default (a
// 2^18 computed table costs more to zero than the entire verification of
// isw-1), while keccak-class gadgets keep bigger ones.
TEST(Portfolio, AdaptiveUnfoldCacheBitsSeparateSmallFromLargeGadgets) {
  const int small = suggest_unfold_cache_bits(gadgets::by_name("isw-1"), 18);
  EXPECT_LT(small, 14);
  EXPECT_GT(suggest_unfold_cache_bits(gadgets::by_name("keccak-2"), 18),
            small);
}

// ---------------------------------------------------------------------------
// Reporting: the resolved engine is visible and deterministic.
// ---------------------------------------------------------------------------

// `auto` and `coef` are one engine: the same run record and byte-identical
// summary, JSON and detailed reports, secure and insecure.
TEST(Portfolio, ReportsCarryTheResolvedEngineDeterministically) {
  for (const char* name : {"dom-1", "isw-2"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Unfolded u = circuit::unfold(g);
    std::string rendered[2];
    for (int i = 0; i < 2; ++i) {
      VerifyOptions opt;
      opt.engine = i == 0 ? EngineKind::kAuto : EngineKind::kCOEF;
      opt.notion = Notion::kPINI;
      opt.order = 2;
      opt.deterministic_report = true;
      const VerifyResult r = verify(g, opt);
      EXPECT_EQ(r.stats.portfolio.chosen, EngineKind::kCOEF) << name;
      rendered[i] = summarize(name, opt, r, 1.0) + "\n" +
                    json_report(name, opt, r, 1.0) + "\n" +
                    detailed_report(g, u.vars, opt, r);
    }
    EXPECT_EQ(rendered[0], rendered[1]) << name;
    EXPECT_NE(rendered[0].find("(engine COEF, "), std::string::npos)
        << rendered[0];
    EXPECT_NE(rendered[0].find("\"engine\":\"COEF\""), std::string::npos)
        << rendered[0];
    EXPECT_EQ(rendered[0].find("auto"), std::string::npos) << rendered[0];
  }
}

}  // namespace
}  // namespace sani::verify
