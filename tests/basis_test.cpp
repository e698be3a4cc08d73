#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "spectral/spectrum.h"
#include "util/combinations.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/qinfo.h"

namespace sani::verify {
namespace {

constexpr EngineKind kAllEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                      EngineKind::kMAPI, EngineKind::kFUJITA};

std::string fingerprint(const VerifyResult& r) {
  std::string fp = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  if (r.counterexample) {
    fp += " |";
    for (const auto& o : r.counterexample->observables) fp += " " + o;
    fp += " | alpha=" + r.counterexample->alpha.to_string();
    fp += " | " + r.counterexample->reason;
  }
  return fp;
}

// ---------------------------------------------------------------------------
// The shared Basis must reproduce exactly the base spectra the old
// per-backend prepare() loops computed: Spectrum::from_bdd of every nonempty
// XOR-subset of every observable, in subset-enumeration order.
// ---------------------------------------------------------------------------

void expect_basis_matches_direct(const char* name, bool robust) {
  circuit::Gadget g = gadgets::by_name(name);
  circuit::Unfolded u = circuit::unfold(g);
  ProbeModelOptions probes;
  probes.glitch_robust = robust;
  ObservableSet obs = build_observables(g, u, probes);

  BasisNeeds needs;
  needs.spectra = true;
  needs.lil = true;
  std::shared_ptr<const Basis> basis = build_basis(u, obs, needs);

  ASSERT_EQ(basis->size(), obs.size());
  std::uint64_t direct_coeffs = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    std::vector<spectral::Spectrum> direct;
    for_each_xor_subset(obs.items[i], *u.manager, [&](const dd::Bdd& x) {
      direct.push_back(spectral::Spectrum::from_bdd(x));
      direct_coeffs += direct.back().nonzero_count();
    });
    ASSERT_EQ(basis->obs[i].num_subsets, direct.size()) << name << " obs " << i;
    ASSERT_EQ(basis->flat[i].size(), direct.size()) << name << " obs " << i;
    for (std::size_t s = 0; s < direct.size(); ++s) {
      EXPECT_TRUE(basis->flat[i][s].is_canonical())
          << name << " obs " << i << " subset " << s;
      EXPECT_TRUE(basis->flat[i][s].to_spectrum() == direct[s])
          << name << " obs " << i << " subset " << s;
      // The sorted-list mirror holds the same coefficients.
      ASSERT_EQ(basis->lil[i][s].nonzero_count(), direct[s].nonzero_count());
      for (const auto& [alpha, v] : basis->lil[i][s].entries())
        EXPECT_EQ(v, direct[s].at(alpha));
    }
  }
  EXPECT_EQ(basis->base_coefficients, direct_coeffs) << name;
  EXPECT_EQ(basis->num_outputs, obs.num_outputs);
}

TEST(Basis, MatchesDirectSpectraStandardModel) {
  expect_basis_matches_direct("dom-1", false);
  expect_basis_matches_direct("isw-2", false);
}

TEST(Basis, MatchesDirectSpectraRobustModel) {
  expect_basis_matches_direct("dom-1", true);
  expect_basis_matches_direct("dom-2", true);
}

TEST(Basis, FujitaBasisCarriesFrozenFunctionsOnly) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  std::shared_ptr<const Basis> basis =
      build_basis(u, obs, EngineKind::kFUJITA);
  EXPECT_EQ(basis->size(), obs.size());
  EXPECT_TRUE(basis->flat.empty());
  EXPECT_TRUE(basis->lil.empty());
  EXPECT_EQ(basis->base_coefficients, 0u);
  // Instead of spectra, the FUJITA basis freezes every XOR-subset BDD so
  // workers can thaw them without a replay.
  EXPECT_FALSE(basis->frozen.empty());
  ASSERT_EQ(basis->frozen_fn_roots.size(), obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i)
    EXPECT_EQ(basis->frozen_fn_roots[i].size(), basis->obs[i].num_subsets);
  EXPECT_TRUE(basis->frozen_spectrum_roots.empty());
  std::shared_ptr<const Basis> lil_basis =
      build_basis(u, obs, EngineKind::kLIL);
  EXPECT_FALSE(lil_basis->flat.empty());
  EXPECT_FALSE(lil_basis->lil.empty());
  EXPECT_TRUE(lil_basis->frozen.empty());
  std::shared_ptr<const Basis> map_basis =
      build_basis(u, obs, EngineKind::kMAP);
  EXPECT_FALSE(map_basis->flat.empty());
  EXPECT_TRUE(map_basis->lil.empty());
  EXPECT_TRUE(map_basis->frozen.empty());
}

TEST(Basis, MapiBasisCarriesFrozenSpectra) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  std::shared_ptr<const Basis> basis = build_basis(u, obs, EngineKind::kMAPI);
  // MAPI keeps the numeric spectra (the backend scans them) and additionally
  // freezes the base-spectrum ADDs so each worker can pre-warm its private
  // manager by thawing instead of replaying the unfolding.
  EXPECT_FALSE(basis->flat.empty());
  EXPECT_FALSE(basis->frozen.empty());
  ASSERT_EQ(basis->frozen_spectrum_roots.size(), obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i)
    EXPECT_EQ(basis->frozen_spectrum_roots[i].size(),
              basis->obs[i].num_subsets);
  EXPECT_TRUE(basis->frozen_fn_roots.empty());
}

// ---------------------------------------------------------------------------
// Backend registry.
// ---------------------------------------------------------------------------

TEST(Registry, RoundTripsEveryEngine) {
  for (const BackendInfo& registered : backend_registry()) {
    const EngineKind kind = registered.kind;
    const BackendInfo& info = backend_info(kind);
    EXPECT_EQ(info.kind, kind);
    const BackendInfo* by_name = backend_by_name(info.name);
    ASSERT_NE(by_name, nullptr) << info.name;
    EXPECT_EQ(by_name->kind, kind);
  }
  EXPECT_EQ(backend_by_name("bogus"), nullptr);
  const std::string names = backend_name_list();
  for (const char* expected : {"lil", "map", "mapi", "fujita", "coef"})
    EXPECT_NE(names.find(expected), std::string::npos) << expected;
  // kAuto is a front-end, not a backend.
  EXPECT_EQ(backend_by_name("auto"), nullptr);
  EXPECT_THROW(backend_info(EngineKind::kAuto), std::logic_error);
}

TEST(Registry, CapabilityFlagsMatchEngineFamilies) {
  // Scan engines run off numeric spectra alone; ADD engines thaw the frozen
  // forest into a private manager.
  EXPECT_FALSE(backend_info(EngineKind::kLIL).needs_thaw);
  EXPECT_FALSE(backend_info(EngineKind::kMAP).needs_thaw);
  EXPECT_TRUE(backend_info(EngineKind::kMAPI).needs_thaw);
  EXPECT_TRUE(backend_info(EngineKind::kFUJITA).needs_thaw);
  EXPECT_TRUE(backend_info(EngineKind::kLIL).needs_lil);
  EXPECT_FALSE(backend_info(EngineKind::kFUJITA).needs_spectra);
  // What each engine asks the basis to freeze: FUJITA rebuilds its base ADDs
  // from the XOR-subset functions, MAPI pre-warms from the base spectra.
  EXPECT_TRUE(backend_info(EngineKind::kFUJITA).frozen_fns);
  EXPECT_FALSE(backend_info(EngineKind::kFUJITA).frozen_spectra);
  EXPECT_TRUE(backend_info(EngineKind::kMAPI).frozen_spectra);
  EXPECT_FALSE(backend_info(EngineKind::kMAPI).frozen_fns);
  EXPECT_FALSE(backend_info(EngineKind::kLIL).frozen_fns);
  EXPECT_FALSE(backend_info(EngineKind::kMAP).frozen_spectra);
  // Only the scan engines materialize forbidden regions.  COEF needs the
  // flat spectra and nothing else: no thaw, no region, no frozen forest.
  EXPECT_TRUE(backend_info(EngineKind::kLIL).needs_region);
  EXPECT_TRUE(backend_info(EngineKind::kMAP).needs_region);
  EXPECT_FALSE(backend_info(EngineKind::kMAPI).needs_region);
  EXPECT_FALSE(backend_info(EngineKind::kFUJITA).needs_region);
  const BackendInfo& coef = backend_info(EngineKind::kCOEF);
  EXPECT_FALSE(coef.needs_thaw);
  EXPECT_FALSE(coef.needs_region);
  EXPECT_TRUE(coef.needs_spectra);
  EXPECT_FALSE(coef.needs_lil);
  EXPECT_FALSE(coef.frozen_fns);
  EXPECT_FALSE(coef.frozen_spectra);
}

// ---------------------------------------------------------------------------
// Prefix memo: verdicts, witnesses, combination and coefficient counts must
// be identical for any capacity (0 = off, 1 = thrashing, -1 = unbounded,
// 64 = default).
// ---------------------------------------------------------------------------

TEST(PrefixMemo, CapacityIsObservationallyInvariant) {
  for (const char* name : {"dom-2", "refresh-3"}) {
    circuit::Gadget g = gadgets::by_name(name);
    for (EngineKind engine : kAllEngines) {
      for (SearchOrder order :
           {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst}) {
        VerifyOptions ref_opt;
        ref_opt.notion = Notion::kSNI;
        ref_opt.order = 2;
        ref_opt.engine = engine;
        ref_opt.search_order = order;
        ref_opt.memo_capacity = 0;
        const VerifyResult ref = verify(g, ref_opt);
        EXPECT_EQ(ref.stats.prefix_memo.hits, 0u);
        for (std::int64_t capacity : {std::int64_t{1}, std::int64_t{-1},
                                      std::int64_t{64}}) {
          VerifyOptions opt = ref_opt;
          opt.memo_capacity = capacity;
          const VerifyResult r = verify(g, opt);
          EXPECT_EQ(fingerprint(r), fingerprint(ref))
              << name << " " << engine_name(engine) << " memo " << capacity;
          EXPECT_EQ(r.stats.combinations, ref.stats.combinations)
              << name << " " << engine_name(engine) << " memo " << capacity;
          EXPECT_EQ(r.stats.coefficients, ref.stats.coefficients)
              << name << " " << engine_name(engine) << " memo " << capacity;
        }
      }
    }
  }
}

TEST(PrefixMemo, LargestFirstRevisitsPrefixesFromTheMemo) {
  // The size-1 pass of largest-first re-pushes every singleton the size-2
  // pass already built; with the memo on, those are hits.
  circuit::Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.search_order = SearchOrder::kLargestFirst;
  opt.memo_capacity = -1;
  const VerifyResult r = verify(g, opt);
  EXPECT_GT(r.stats.prefix_memo.hits, 0u);
  EXPECT_GT(r.stats.prefix_memo.misses, 0u);
}

// ---------------------------------------------------------------------------
// Row-check region cache: one region per combination signature, every later
// combination with the same signature is a hit — for the scan regions and
// the predicate BDDs alike.
// ---------------------------------------------------------------------------

TEST(RowCheck, RegionCacheCountersAreVisible) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  for (EngineKind engine : kAllEngines) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.engine = engine;
    const VerifyResult r = verify(g, opt);
    EXPECT_GT(r.stats.region_cache.misses, 0u) << engine_name(engine);
    EXPECT_GT(r.stats.region_cache.hits, 0u) << engine_name(engine);
    // Every combination queries the cache exactly once.
    EXPECT_EQ(r.stats.region_cache.hits + r.stats.region_cache.misses,
              r.stats.combinations)
        << engine_name(engine);
  }
}

// ---------------------------------------------------------------------------
// The non-replay verify_prepared overload: every engine honors --jobs over
// the shared basis — scan engines read the numeric spectra, ADD engines
// thaw the frozen forest into worker-private managers.
// ---------------------------------------------------------------------------

TEST(Prepared, ScanEnginesHonorJobsWithoutReplay) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  for (EngineKind engine : {EngineKind::kLIL, EngineKind::kMAP}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.engine = engine;
    opt.jobs = 1;
    const std::string want = fingerprint(verify_prepared(u, obs, opt));
    opt.jobs = 2;
    opt.shard_size = 9;
    const VerifyResult r = verify_prepared(u, obs, opt);
    EXPECT_EQ(fingerprint(r), want) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.jobs, 2) << engine_name(engine);
    EXPECT_TRUE(r.stats.parallel.shared_basis) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.replays, 0u) << engine_name(engine);
    EXPECT_TRUE(r.warnings.empty()) << engine_name(engine);
  }
}

TEST(Prepared, AddEnginesHonorJobsOverSharedBasis) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  for (EngineKind engine : {EngineKind::kMAPI, EngineKind::kFUJITA}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 1;
    opt.engine = engine;
    opt.jobs = 1;
    const VerifyResult s = verify_prepared(u, obs, opt);
    EXPECT_TRUE(s.warnings.empty()) << engine_name(engine);

    opt.jobs = 4;
    opt.shard_size = 3;
    const VerifyResult r = verify_prepared(u, obs, opt);
    EXPECT_TRUE(r.warnings.empty()) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.jobs, 4) << engine_name(engine);
    EXPECT_TRUE(r.stats.parallel.shared_basis) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.replays, 0u) << engine_name(engine);
    EXPECT_GT(r.stats.frozen_nodes, 0u) << engine_name(engine);
    EXPECT_EQ(fingerprint(r), fingerprint(s)) << engine_name(engine);
  }
}

// ---------------------------------------------------------------------------
// QInfoStore: the dense per-size store must find what was inserted and walk
// it in (size, lexicographic) order.
// ---------------------------------------------------------------------------

/// Every entry of `store` decoded back to its combination, in walk order.
std::vector<std::vector<int>> walked_combos(const QInfoStore& store) {
  std::vector<std::vector<int>> combos;
  store.for_each([&](int k, std::uint64_t rank, std::span<const Mask>) {
    combos.push_back(unrank_combination(store.num_observables(), k, rank));
  });
  return combos;
}

TEST(QInfoStore, FindsInsertedCombosAndWalksInRankOrder) {
  QInfoStore store(5);
  // Insertion order deliberately not lexicographic.
  for (const std::vector<int>& combo : std::vector<std::vector<int>>{
           {1, 3}, {0}, {2, 4}, {0, 1}, {4}, {1}}) {
    std::vector<Mask> V(1);
    V[0].set(combo.front());
    store.insert(combo, V);
  }
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.num_secrets(), 1);
  const Mask* hit = store.find({1, 3});
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit[0].test(1));
  EXPECT_EQ(store.find(2, combination_rank(5, {1, 3})), hit);
  EXPECT_EQ(store.find({3}), nullptr);
  EXPECT_EQ(store.find({0, 2}), nullptr);
  EXPECT_EQ(store.find({0, 1, 2}), nullptr);

  const std::vector<std::vector<int>> want = {{0},    {1},    {4},
                                              {0, 1}, {1, 3}, {2, 4}};
  EXPECT_EQ(walked_combos(store), want);
  EXPECT_GT(store.bytes(), 0u);
  EXPECT_GE(store.peak_bytes(), store.bytes());
}

TEST(QInfoStore, MergesDisjointStores) {
  QInfoStore a(6), b(6);
  const std::vector<Mask> V(1);
  a.insert({0, 2}, V);
  b.insert({1, 5}, V);
  b.insert({3}, V);
  a.merge_from(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_NE(a.find({0, 2}), nullptr);
  EXPECT_NE(a.find({1, 5}), nullptr);
  EXPECT_NE(a.find({3}), nullptr);
  const std::vector<std::vector<int>> want = {{3}, {0, 2}, {1, 5}};
  EXPECT_EQ(walked_combos(a), want);

  // Moving into an empty store takes the entries over whole.
  QInfoStore c(6);
  c.merge_from(std::move(a));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(walked_combos(c), want);
}

TEST(QInfoStore, PeakBytesReportedInStats) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  const VerifyResult r = verify(g, opt);
  ASSERT_TRUE(r.secure);
  EXPECT_EQ(r.stats.qinfo_entries, r.stats.combinations);
  EXPECT_GT(r.stats.qinfo_peak_bytes, 0u);
}

}  // namespace
}  // namespace sani::verify
