// The set-level union pass (verify/partial.h) against a naive reference.
//
// union_pass builds U(Q) = V(Q) | U(Q minus q_j) ... size by size over the
// dense dependency store.  The reference below is the direct definition:
// every recorded Q in lexicographic vector order, V folded over all 2^k - 1
// recorded sub-combinations, first violation wins.  Random stores leave
// entries out the way an incremental replay can, so "absent counts as
// empty" is exercised too.  The registry tests pin the end-to-end reports
// across worker counts, including mux_leak, where only the union pass
// fails.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "circuit/builder.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "util/combinations.h"
#include "verify/basis.h"
#include "verify/checker.h"
#include "verify/engine.h"
#include "verify/partial.h"
#include "verify/qinfo.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

using Deps = std::map<std::vector<int>, std::vector<Mask>>;

/// n observables over `secrets` secrets of `shares` shares each (share j of
/// secret s is variable s * shares + j); about a third are output shares.
Basis random_basis(std::mt19937_64& rng, int n, int secrets, int shares) {
  Basis b;
  b.vars.secret_vars.resize(static_cast<std::size_t>(secrets));
  b.vars.secret_share_var.resize(static_cast<std::size_t>(secrets));
  for (int s = 0; s < secrets; ++s)
    for (int j = 0; j < shares; ++j) {
      const int var = s * shares + j;
      b.vars.secret_vars[static_cast<std::size_t>(s)].set(var);
      b.vars.share_vars.set(var);
      b.vars.secret_share_var[static_cast<std::size_t>(s)].push_back(var);
    }
  b.vars.num_vars = secrets * shares;
  for (int i = 0; i < n; ++i) {
    ObservableInfo o;
    o.name = "o" + std::to_string(i);
    if (rng() % 3 == 0) {
      o.kind = Observable::Kind::kOutput;
      o.output_group = 0;
      o.output_share_index = static_cast<int>(rng() % shares);
    }
    b.obs.push_back(o);
  }
  return b;
}

RowContext reference_row(const Basis& basis, const std::vector<int>& combo) {
  RowContext row;
  row.num_observables = static_cast<int>(combo.size());
  for (int i : combo) {
    const ObservableInfo& o = basis.obs[static_cast<std::size_t>(i)];
    if (o.kind == Observable::Kind::kOutput) {
      ++row.num_outputs;
      row.output_indices |= std::uint64_t{1} << o.output_share_index;
    } else {
      ++row.num_internal;
    }
  }
  return row;
}

VerifyResult reference_union_pass(const Basis& basis, const Checker& checker,
                                  const Deps& deps) {
  VerifyResult result;
  const std::size_t secrets = basis.vars.secret_vars.size();
  for (const auto& [q, unused] : deps) {  // std::map: lexicographic order
    std::vector<Mask> V(secrets);
    const std::size_t k = q.size();
    for (std::size_t sel = 1; sel < (std::size_t{1} << k); ++sel) {
      std::vector<int> sub;
      for (std::size_t j = 0; j < k; ++j)
        if (sel & (std::size_t{1} << j)) sub.push_back(q[j]);
      const auto it = deps.find(sub);
      if (it == deps.end()) continue;
      for (std::size_t s = 0; s < secrets; ++s) V[s] |= it->second[s];
    }
    std::string reason;
    if (checker.union_violates(V, reference_row(basis, q), &reason)) {
      result.secure = false;
      CounterExample ce;
      for (int i : q)
        ce.observables.push_back(basis.obs[static_cast<std::size_t>(i)].name);
      for (const Mask& v : V) ce.alpha |= v;
      ce.reason = "set-level dependency check failed: " + reason;
      result.counterexample = ce;
      return result;
    }
  }
  return result;
}

TEST(UnionPass, MatchesNaiveReferenceOnRandomStores) {
  constexpr Notion kNotions[] = {Notion::kNI, Notion::kSNI, Notion::kPINI};
  constexpr double kPresence[] = {1.0, 0.8, 0.4};
  constexpr double kDensity[] = {0.05, 0.15, 0.3};
  int insecure = 0;
  int secure = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    std::mt19937_64 rng(seed);
    const int n = 1 + static_cast<int>(rng() % 10);
    const int top = 1 + static_cast<int>(rng() % std::min(4, n));
    const int secrets = 1 + static_cast<int>(rng() % 3);
    const int shares = 2 + static_cast<int>(rng() % 3);
    const Notion notion = kNotions[rng() % 3];
    const bool joint = notion != Notion::kPINI && rng() % 4 == 0;
    const double presence = kPresence[rng() % 3];
    const double density = kDensity[rng() % 3];
    std::uniform_real_distribution<double> coin(0.0, 1.0);

    const Basis basis = random_basis(rng, n, secrets, shares);
    const Checker checker(basis.vars, notion, joint);
    QInfoStore store(n);
    Deps deps;
    for (int k = 1; k <= top; ++k) {
      CombinationIter it(n, k);
      do {
        if (coin(rng) >= presence) continue;
        std::vector<Mask> V(static_cast<std::size_t>(secrets));
        for (int s = 0; s < secrets; ++s)
          for (int j = 0; j < shares; ++j)
            if (coin(rng) < density) V[static_cast<std::size_t>(s)].set(
                s * shares + j);
        store.insert(it.indices(), V);
        deps.emplace(it.indices(), std::move(V));
      } while (it.next());
    }

    VerifyResult got;
    union_pass(basis, checker, store, nullptr, got);
    const VerifyResult want = reference_union_pass(basis, checker, deps);
    const std::string where = "seed " + std::to_string(seed);
    ASSERT_EQ(got.secure, want.secure) << where;
    ASSERT_FALSE(got.timed_out) << where;
    if (want.secure) {
      ++secure;
      EXPECT_FALSE(got.counterexample.has_value()) << where;
      continue;
    }
    ++insecure;
    ASSERT_TRUE(got.counterexample.has_value()) << where;
    EXPECT_EQ(got.counterexample->observables, want.counterexample->observables)
        << where;
    EXPECT_EQ(got.counterexample->alpha, want.counterexample->alpha) << where;
    EXPECT_EQ(got.counterexample->reason, want.counterexample->reason)
        << where;
  }
  // The seeds must exercise both outcomes to mean anything.
  EXPECT_GT(secure, 50);
  EXPECT_GT(insecure, 50);
}

TEST(UnionPass, EmptyStorePasses) {
  std::mt19937_64 rng(7);
  const Basis basis = random_basis(rng, 5, 1, 3);
  const Checker checker(basis.vars, Notion::kSNI);
  VerifyResult r;
  union_pass(basis, checker, QInfoStore(5), nullptr, r);
  EXPECT_TRUE(r.secure);
  EXPECT_FALSE(r.counterexample.has_value());
}

// ---------------------------------------------------------------------------
// End to end: the deterministic report of a gadget is the same at every
// worker count.  Only the count itself is shaped by the worker count by
// design (the "N jobs" token and the "parallel" section); it is cleared
// before comparing, and every other byte — verdict, counters, phases,
// witness — must match.

circuit::Gadget mux_leak() {
  // q = r ? a0 : a1: every row passes, but the distribution depends on
  // both shares, so only the set-level check rejects 1-NI (see
  // BruteForce.MuxGadgetSeparatesRowAndSetChecks).
  circuit::GadgetBuilder b("mux_leak");
  auto a = b.secret("a", 2);
  auto r = b.random("r");
  circuit::WireId q = b.mux(a[1], a[0], r, "q");
  b.output_group("c", {b.buf(q)});
  return b.build();
}

std::string deterministic_reports(const circuit::Gadget& g,
                                  VerifyOptions opt, int jobs) {
  opt.jobs = jobs;
  opt.deterministic_report = true;
  VerifyResult r = verify(g, opt);
  r.stats.parallel = ParallelStats{};
  std::string out = summarize(g.netlist.name(), opt, r, 0.0) + "\n";
  if (!r.secure && r.counterexample) {
    const circuit::Unfolded u = circuit::unfold(g, opt.cache_bits);
    out += detailed_report(g, u.vars, opt, r);
  }
  return out + json_report(g.netlist.name(), opt, r, 0.0);
}

void expect_same_across_jobs(const circuit::Gadget& g,
                             const VerifyOptions& opt, bool secure) {
  const std::string serial = deterministic_reports(g, opt, 1);
  EXPECT_EQ(serial.find(" is NOT ") == std::string::npos, secure) << serial;
  for (int jobs : {2, 4})
    EXPECT_EQ(deterministic_reports(g, opt, jobs), serial)
        << g.netlist.name() << " at " << jobs << " jobs";
}

TEST(UnionPass, SniRefreshReportIdenticalAcrossJobs) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 5;
  expect_same_across_jobs(gadgets::by_name("sni-refresh-6"), opt, true);
}

TEST(UnionPass, Hpc2ReportIdenticalAcrossJobs) {
  VerifyOptions opt;
  opt.notion = Notion::kPINI;
  opt.order = 3;
  expect_same_across_jobs(gadgets::by_name("hpc2-3"), opt, true);
}

TEST(UnionPass, MuxLeakFailsOnlyInUnionPassAtEveryJobCount) {
  VerifyOptions opt;
  opt.notion = Notion::kNI;
  opt.order = 1;
  const circuit::Gadget g = mux_leak();
  expect_same_across_jobs(g, opt, false);
  for (int jobs : {1, 2, 4}) {
    opt.jobs = jobs;
    const VerifyResult r = verify(g, opt);
    ASSERT_FALSE(r.secure) << jobs;
    ASSERT_TRUE(r.counterexample.has_value()) << jobs;
    EXPECT_EQ(r.counterexample->reason.rfind("set-level dependency check", 0),
              0u)
        << r.counterexample->reason;
  }
}

}  // namespace
}  // namespace sani::verify
