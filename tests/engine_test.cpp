#include <gtest/gtest.h>

#include "circuit/unfold.h"
#include "gadgets/composition.h"
#include "gadgets/registry.h"
#include "verify/engine.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

constexpr EngineKind kAllEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                      EngineKind::kMAPI, EngineKind::kFUJITA,
                                      EngineKind::kCOEF};
constexpr Notion kAllNotions[] = {Notion::kProbing, Notion::kNI, Notion::kSNI,
                                  Notion::kPINI};

VerifyResult run(const circuit::Gadget& g, Notion notion, int order,
                 EngineKind engine, bool joint = false) {
  VerifyOptions opt;
  opt.notion = notion;
  opt.order = order;
  opt.engine = engine;
  opt.joint_share_count = joint;
  return verify(g, opt);
}

// ---------------------------------------------------------------------------
// Cross-engine agreement: the paper's Table II compares four implementations
// of the *same* decision procedure; they must never disagree.
// ---------------------------------------------------------------------------

class CrossEngine
    : public ::testing::TestWithParam<std::tuple<const char*, Notion>> {};

TEST_P(CrossEngine, AllEnginesAgree) {
  auto [name, notion] = GetParam();
  circuit::Gadget g = gadgets::by_name(name);
  const int d = gadgets::security_level(name);
  VerifyResult ref = run(g, notion, d, EngineKind::kMAPI);
  for (EngineKind e : kAllEngines) {
    VerifyResult r = run(g, notion, d, e);
    EXPECT_EQ(r.secure, ref.secure)
        << name << " " << notion_name(notion) << " " << engine_name(e);
    EXPECT_EQ(r.stats.combinations, ref.stats.combinations)
        << name << " " << notion_name(notion) << " " << engine_name(e);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallGadgets, CrossEngine,
    ::testing::Combine(::testing::Values("ti-1", "trichina-1", "isw-1",
                                         "dom-1", "refresh-2", "refresh-3",
                                         "sni-refresh-2", "sni-refresh-3"),
                       ::testing::ValuesIn(kAllNotions)));

// All backends walk the shared enumeration in the same order, so on an
// insecure instance they must agree on the *failing combination* too (the
// witness coordinate alpha may differ between representations) — under both
// search orders.
TEST(CrossEngine, SameFailingCombinationUnderBothSearchOrders) {
  for (const char* name : {"ti-1", "refresh-3", "isw-2"}) {
    circuit::Gadget g = gadgets::by_name(name);
    const Notion notion =
        std::string(name) == "isw-2" ? Notion::kPINI : Notion::kSNI;
    const int d = std::string(name) == "ti-1" ? 1 : 2;
    for (SearchOrder order :
         {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst}) {
      VerifyOptions opt;
      opt.notion = notion;
      opt.order = d;
      opt.search_order = order;
      opt.engine = EngineKind::kMAPI;
      VerifyResult ref = verify(g, opt);
      ASSERT_FALSE(ref.secure) << name;
      ASSERT_TRUE(ref.counterexample.has_value()) << name;
      for (EngineKind e : kAllEngines) {
        opt.engine = e;
        VerifyResult r = verify(g, opt);
        ASSERT_FALSE(r.secure) << name << " " << engine_name(e);
        ASSERT_TRUE(r.counterexample.has_value())
            << name << " " << engine_name(e);
        EXPECT_EQ(r.counterexample->observables,
                  ref.counterexample->observables)
            << name << " " << engine_name(e);
        EXPECT_EQ(r.stats.combinations, ref.stats.combinations)
            << name << " " << engine_name(e);
      }
    }
  }
}

// Level-2 gadgets are slower; cover them with the two hash-map engines plus
// FUJITA on a single notion each.
TEST(CrossEngine, LevelTwoAgreement) {
  for (const char* name : {"isw-2", "dom-2"}) {
    circuit::Gadget g = gadgets::by_name(name);
    VerifyResult mapi = run(g, Notion::kSNI, 2, EngineKind::kMAPI);
    VerifyResult map = run(g, Notion::kSNI, 2, EngineKind::kMAP);
    VerifyResult fuj = run(g, Notion::kSNI, 2, EngineKind::kFUJITA);
    EXPECT_EQ(mapi.secure, map.secure) << name;
    EXPECT_EQ(mapi.secure, fuj.secure) << name;
  }
}

// ---------------------------------------------------------------------------
// Known verdicts from the literature.
// ---------------------------------------------------------------------------

TEST(Verdicts, IswIsSni) {
  // ISW multiplication is d-SNI (Barthe et al., CCS'16).
  EXPECT_TRUE(run(gadgets::by_name("isw-1"), Notion::kSNI, 1,
                  EngineKind::kMAPI)
                  .secure);
  EXPECT_TRUE(run(gadgets::by_name("isw-2"), Notion::kSNI, 2,
                  EngineKind::kMAPI)
                  .secure);
}

TEST(Verdicts, IswIsProbingSecureAndNi) {
  circuit::Gadget g = gadgets::by_name("isw-1");
  EXPECT_TRUE(run(g, Notion::kProbing, 1, EngineKind::kMAPI).secure);
  EXPECT_TRUE(run(g, Notion::kNI, 1, EngineKind::kMAPI).secure);
}

TEST(Verdicts, SniRefreshIsSni) {
  EXPECT_TRUE(run(gadgets::by_name("sni-refresh-2"), Notion::kSNI, 1,
                  EngineKind::kMAPI)
                  .secure);
  EXPECT_TRUE(run(gadgets::by_name("sni-refresh-3"), Notion::kSNI, 2,
                  EngineKind::kMAPI)
                  .secure);
}

TEST(Verdicts, SimpleRefreshIsNiButNotSni) {
  // The paper's f (Fig. 1) is d-NI but not d-SNI: probing the chain node
  // a0^r0 together with output a1^r0 cancels r0.
  circuit::Gadget g = gadgets::by_name("refresh-3");
  EXPECT_TRUE(run(g, Notion::kNI, 2, EngineKind::kMAPI).secure);
  VerifyResult sni = run(g, Notion::kSNI, 2, EngineKind::kMAPI);
  EXPECT_FALSE(sni.secure);
  ASSERT_TRUE(sni.counterexample.has_value());
  EXPECT_FALSE(sni.counterexample->observables.empty());
}

TEST(Verdicts, TrichinaIsProbingSecure) {
  circuit::Gadget g = gadgets::by_name("trichina-1");
  EXPECT_TRUE(run(g, Notion::kProbing, 1, EngineKind::kMAPI).secure);
  // Under the paper's joint share counting, a single cross product a0 AND b1
  // already touches two input shares -> not 1-NI in that convention.
  EXPECT_FALSE(run(g, Notion::kNI, 1, EngineKind::kMAPI, true).secure);
}

TEST(Verdicts, TiIsProbingSecureButNotNi) {
  circuit::Gadget g = gadgets::by_name("ti-1");
  EXPECT_TRUE(run(g, Notion::kProbing, 1, EngineKind::kMAPI).secure);
  // Non-completeness gives probing security without NI: any output share
  // already depends on two shares of each input.
  EXPECT_FALSE(run(g, Notion::kNI, 1, EngineKind::kMAPI).secure);
}

TEST(Verdicts, DomIsProbingSecureAndNi) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  EXPECT_TRUE(run(g, Notion::kProbing, 1, EngineKind::kMAPI).secure);
  EXPECT_TRUE(run(g, Notion::kNI, 1, EngineKind::kMAPI).secure);
}

TEST(Verdicts, CounterexampleIsActionable) {
  circuit::Gadget g = gadgets::by_name("refresh-3");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  VerifyResult r = verify(g, opt);
  ASSERT_FALSE(r.secure);
  ASSERT_TRUE(r.counterexample.has_value());
  circuit::Unfolded u = circuit::unfold(g);
  std::string report = detailed_report(g, u.vars, opt, r);
  EXPECT_NE(report.find("INSECURE"), std::string::npos);
  EXPECT_NE(report.find("counterexample"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The Fig. 1/2 composition example.
// ---------------------------------------------------------------------------

TEST(Composition, NotTwoNiUnderJointCounting) {
  // The paper's witness: probes p_f and an ISW cross product reveal three
  // input shares with two probed values -> not 2-NI under the paper's
  // total-share-count T-matrix.
  gadgets::Composition c = gadgets::composition_example();
  circuit::Unfolded u = circuit::unfold(c.gadget);
  ObservableSet obs = build_observables_with_probes(
      c.gadget, u, {c.probe_f_name, "g.p[1,0]"});
  VerifyOptions opt;
  opt.notion = Notion::kNI;
  opt.order = 2;
  opt.joint_share_count = true;
  VerifyResult r = verify_prepared(u, obs, opt);
  EXPECT_FALSE(r.secure);
}

TEST(Composition, AllEnginesAgreeOnFixedProbes) {
  gadgets::Composition c = gadgets::composition_example();
  circuit::Unfolded u = circuit::unfold(c.gadget);
  ObservableSet obs = build_observables_with_probes(
      c.gadget, u, {c.probe_f_name, c.probe_g_name});
  for (bool joint : {false, true}) {
    VerifyOptions opt;
    opt.notion = Notion::kNI;
    opt.order = 2;
    opt.joint_share_count = joint;
    opt.engine = EngineKind::kMAPI;
    bool ref = verify_prepared(u, obs, opt).secure;
    for (EngineKind e : kAllEngines) {
      opt.engine = e;
      EXPECT_EQ(verify_prepared(u, obs, opt).secure, ref)
          << engine_name(e) << " joint=" << joint;
    }
  }
}

// ---------------------------------------------------------------------------
// Options behaviour.
// ---------------------------------------------------------------------------

// Known composability theorems as an order sweep (the statements, not just
// single instances): ISW is d-SNI, DOM is d-NI and d-probing secure, the
// ISW refresh is d-SNI, the additive refresh is d-NI but never d-SNI for
// d >= 2.
class TheoremSweep : public ::testing::TestWithParam<int> {};

TEST_P(TheoremSweep, ClassicResultsHoldAtEveryOrder) {
  const int d = GetParam();
  EXPECT_TRUE(run(gadgets::by_name("isw-" + std::to_string(d)), Notion::kSNI,
                  d, EngineKind::kMAPI)
                  .secure);
  EXPECT_TRUE(run(gadgets::by_name("dom-" + std::to_string(d)), Notion::kNI,
                  d, EngineKind::kMAPI)
                  .secure);
  EXPECT_TRUE(run(gadgets::by_name("dom-" + std::to_string(d)),
                  Notion::kProbing, d, EngineKind::kMAPI)
                  .secure);
  EXPECT_TRUE(run(gadgets::by_name("sni-refresh-" + std::to_string(d + 1)),
                  Notion::kSNI, d, EngineKind::kMAPI)
                  .secure);
  EXPECT_TRUE(run(gadgets::by_name("refresh-" + std::to_string(d + 1)),
                  Notion::kNI, d, EngineKind::kMAPI)
                  .secure);
  if (d >= 2) {
    EXPECT_FALSE(run(gadgets::by_name("refresh-" + std::to_string(d + 1)),
                     Notion::kSNI, d, EngineKind::kMAPI)
                     .secure);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, TheoremSweep, ::testing::Values(1, 2));

TEST(Options, SiftAfterUnfoldKeepsVerdicts) {
  for (const char* name : {"dom-1", "isw-2", "refresh-3"}) {
    circuit::Gadget g = gadgets::by_name(name);
    const int d = gadgets::security_level(name);
    for (Notion notion : {Notion::kProbing, Notion::kSNI}) {
      VerifyOptions plain;
      plain.notion = notion;
      plain.order = d;
      VerifyOptions sifted = plain;
      sifted.sift_after_unfold = true;
      EXPECT_EQ(verify(g, sifted).secure, verify(g, plain).secure)
          << name << " " << notion_name(notion);
    }
  }
}

TEST(Options, VerdictsAreVariableOrderInvariant) {
  for (const char* name : {"isw-1", "dom-1", "ti-1", "refresh-3"}) {
    circuit::Gadget g = gadgets::by_name(name);
    const int d = gadgets::security_level(name);
    for (Notion notion : {Notion::kProbing, Notion::kSNI}) {
      VerifyOptions base;
      base.notion = notion;
      base.order = d;
      const bool ref = verify(g, base).secure;
      for (circuit::VarOrder order :
           {circuit::VarOrder::kRandomsFirst, circuit::VarOrder::kRandomsLast,
            circuit::VarOrder::kInterleaved}) {
        VerifyOptions opt = base;
        opt.var_order = order;
        EXPECT_EQ(verify(g, opt).secure, ref)
            << name << " " << notion_name(notion);
        opt.engine = EngineKind::kFUJITA;
        EXPECT_EQ(verify(g, opt).secure, ref)
            << name << " fujita " << notion_name(notion);
      }
    }
  }
}

TEST(Options, SearchOrderIsVerdictNeutral) {
  for (const char* name : {"ti-1", "isw-1", "dom-1", "refresh-3",
                           "sni-refresh-3"}) {
    circuit::Gadget g = gadgets::by_name(name);
    const int d = gadgets::security_level(name);
    for (Notion notion : {Notion::kProbing, Notion::kSNI}) {
      VerifyOptions dfs;
      dfs.notion = notion;
      dfs.order = d;
      VerifyOptions big = dfs;
      big.search_order = SearchOrder::kLargestFirst;
      VerifyResult rd = verify(g, dfs);
      VerifyResult rb = verify(g, big);
      EXPECT_EQ(rd.secure, rb.secure) << name << " " << notion_name(notion);
      if (rd.secure) {
        // Secure instances enumerate the same set either way.
        EXPECT_EQ(rd.stats.combinations, rb.stats.combinations) << name;
      }
    }
  }
}

TEST(Options, LargestFirstFindsPairWitnessSooner) {
  // refresh-3's 2-SNI failure needs a pair; starting from the maximum size
  // reaches it before the singleton sweep (the paper's Sec. III-C
  // rationale).
  circuit::Gadget g = gadgets::by_name("refresh-3");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  VerifyResult dfs = verify(g, opt);
  opt.search_order = SearchOrder::kLargestFirst;
  VerifyResult big = verify(g, opt);
  ASSERT_FALSE(dfs.secure);
  ASSERT_FALSE(big.secure);
  EXPECT_LE(big.stats.combinations, dfs.stats.combinations);
  ASSERT_TRUE(big.counterexample.has_value());
  EXPECT_EQ(big.counterexample->observables.size(), 2u);
}

TEST(Options, TimeLimitStops) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 1e-9;  // expire immediately
  VerifyResult r = verify(g, opt);
  EXPECT_TRUE(r.timed_out);
}

TEST(Options, InvalidOrderRejected) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  VerifyOptions opt;
  opt.order = 0;
  EXPECT_THROW(verify(g, opt), std::invalid_argument);
}

TEST(Options, StatsArePopulated) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 1;
  VerifyResult r = verify(g, opt);
  EXPECT_GT(r.stats.num_observables, 0u);
  EXPECT_GT(r.stats.combinations, 0u);
  EXPECT_GT(r.stats.coefficients, 0u);
  // Combinations of size <= 1 over N observables = N.
  EXPECT_EQ(r.stats.combinations, r.stats.num_observables);
}

TEST(Options, DedupeShrinksUniverse) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  VerifyOptions with;
  with.order = 1;
  VerifyOptions without = with;
  without.probes.dedupe = false;
  EXPECT_LT(verify(g, with).stats.num_observables,
            verify(g, without).stats.num_observables);
}

TEST(Options, RowCheckAloneMatchesUnionCheckOnBenchmarks) {
  // The benchmark harness runs with union_check = false (the paper's
  // methodology); verify that on the benchmark suite this loses nothing.
  for (const char* name : {"ti-1", "trichina-1", "isw-1", "dom-1",
                           "refresh-3", "sni-refresh-3"}) {
    circuit::Gadget g = gadgets::by_name(name);
    const int d = gadgets::security_level(name);
    for (Notion notion : kAllNotions) {
      VerifyOptions row_only;
      row_only.notion = notion;
      row_only.order = d;
      row_only.union_check = false;
      VerifyOptions full = row_only;
      full.union_check = true;
      EXPECT_EQ(verify(g, row_only).secure, verify(g, full).secure)
          << name << " " << notion_name(notion);
    }
  }
}

}  // namespace
}  // namespace sani::verify
