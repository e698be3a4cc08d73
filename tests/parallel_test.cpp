#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builder.h"
#include "gadgets/registry.h"
#include "obs/progress.h"
#include "sched/cancel.h"
#include "sched/pool.h"
#include "sched/shard.h"
#include "util/combinations.h"
#include "verify/bruteforce.h"
#include "verify/driver.h"
#include "verify/engine.h"
#include "verify/heuristic.h"
#include "verify/partial.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

using circuit::Gadget;
using circuit::GadgetBuilder;
using circuit::WireId;

// Verdict + witness, flattened for equality assertions.  Two runs agree iff
// their fingerprints are identical strings.
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

// The tentpole acceptance criterion: for every registry gadget and order,
// the parallel runtime returns the serial engine's verdict AND witness for
// any worker count.  shard_size is pinned small so even tiny probe spaces
// split into many shards (exercising the merge, not just one worker).
TEST(Parallel, DeterministicAcrossJobCountsAllRegistryGadgets) {
  for (const std::string& name : gadgets::all_names()) {
    const Gadget g = gadgets::by_name(name);
    for (int order : {1, 2}) {
      VerifyOptions opt;
      opt.notion = Notion::kSNI;
      opt.order = order;
      opt.jobs = 1;
      const VerifyResult serial = verify(g, opt);
      const std::string want = fingerprint(serial);
      for (int jobs : {2, 4}) {
        opt.jobs = jobs;
        opt.shard_size = 7;
        const VerifyResult parallel = verify(g, opt);
        EXPECT_EQ(fingerprint(parallel), want)
            << name << " order " << order << " jobs " << jobs;
        if (serial.secure && !serial.timed_out) {
          EXPECT_EQ(parallel.stats.combinations, serial.stats.combinations)
              << name << " order " << order << " jobs " << jobs;
        }
        EXPECT_EQ(parallel.stats.parallel.jobs, jobs);
        // MAPI (the default engine) shares the one frozen Basis like every
        // other engine: no per-worker unfolding replays, ever.
        EXPECT_TRUE(parallel.stats.parallel.shared_basis)
            << name << " order " << order << " jobs " << jobs;
        EXPECT_EQ(parallel.stats.parallel.replays, 0u)
            << name << " order " << order << " jobs " << jobs;
      }
    }
  }
}

// Largest-first search visits a different serial order (sizes descending);
// the parallel merge must reproduce *that* witness too.
TEST(Parallel, DeterministicUnderLargestFirst) {
  const Gadget g = gadgets::by_name("isw-2");
  VerifyOptions opt;
  opt.notion = Notion::kPINI;
  opt.order = 2;
  opt.search_order = SearchOrder::kLargestFirst;
  opt.jobs = 1;
  const std::string want = fingerprint(verify(g, opt));
  EXPECT_NE(want.find("insecure"), std::string::npos);
  for (int jobs : {2, 4}) {
    opt.jobs = jobs;
    opt.shard_size = 5;
    EXPECT_EQ(fingerprint(verify(g, opt)), want) << "jobs " << jobs;
  }
}

// A wide gadget with one seeded leak on the very first observable: output
// share c0 = a0 ^ a1 recombines the secret, followed by a long tail of
// properly blinded wires.  The first shard fails immediately; everything
// after it can only be skipped or abandoned.
Gadget wide_flawed(int tail) {
  GadgetBuilder b("wide_flawed");
  const auto a = b.secret("a", 2);
  const auto r = b.randoms("r", tail);
  std::vector<WireId> blinded;
  for (int i = 0; i < tail; ++i)
    blinded.push_back(b.xor_(a[i % 2], r[static_cast<std::size_t>(i)],
                             "m" + std::to_string(i)));
  const WireId leak = b.xor_(a[0], a[1], "leak");  // the seeded flaw
  b.output_group("c", {leak, b.buf(blinded[0], "c1")});
  return b.build();
}

TEST(Parallel, CounterexampleCancelsRemainingShards) {
  const Gadget g = wide_flawed(48);
  VerifyOptions opt;
  opt.notion = Notion::kProbing;
  opt.order = 1;

  opt.jobs = 1;
  const VerifyResult serial = verify(g, opt);
  ASSERT_FALSE(serial.secure);
  const std::uint64_t total =
      count_combinations_up_to(static_cast<int>(serial.stats.num_observables),
                               opt.order);

  opt.jobs = 4;
  opt.shard_size = 2;  // many shards after the failing one
  // Worker 0's Driver is built on the calling thread, so it reaches the
  // leak in shard 0 while the other workers are still thawing the frozen
  // basis into their managers; the rest of the probe space should not all
  // be enumerated.  That is a race we can lose under scheduler pressure
  // (the other workers may drain every shard before the cancel flag
  // lands), so the cancellation evidence only has to show up in one of a
  // few attempts — the deterministic-merge assertion holds on every one.
  bool cancelled_early = false;
  for (int attempt = 0; attempt < 5 && !cancelled_early; ++attempt) {
    const VerifyResult parallel = verify(g, opt);
    ASSERT_EQ(fingerprint(parallel), fingerprint(serial));
    cancelled_early = parallel.stats.combinations < total &&
                      parallel.stats.parallel.shards_skipped +
                              parallel.stats.parallel.shards_abandoned >=
                          1u;
  }
  EXPECT_TRUE(cancelled_early)
      << "no run out of 5 short-circuited the probe space";
}

// --time-limit must fire *mid-enumeration*, not only between sizes: a tiny
// budget on a 25k-combination space has to come back partial.
TEST(Parallel, TimeLimitFiresMidEnumerationSerial) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 0.005;
  opt.jobs = 1;
  const VerifyResult r = verify(gadgets::by_name("keccak-3"), opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.stats.combinations, 25425u);  // C(225,1) + C(225,2)
}

TEST(Parallel, TimeLimitFiresMidEnumerationParallel) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 0.005;
  opt.jobs = 4;
  const VerifyResult r = verify(gadgets::by_name("keccak-3"), opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_LT(r.stats.combinations, 25425u);
}

TEST(Parallel, TimeLimitFiresInBruteforce) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 3;
  opt.time_limit = 0.002;
  const VerifyResult r =
      verify_bruteforce(gadgets::by_name("dom-3"), opt);
  EXPECT_TRUE(r.timed_out);
}

TEST(Parallel, TimeLimitFiresInHeuristic) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 0.002;
  const HeuristicResult r =
      verify_heuristic(gadgets::by_name("keccak-3"), opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.proven_secure);
}

// jobs = 0 resolves to the hardware thread count and must behave like any
// other worker count; the *resolved* count (sched::default_jobs) is what
// the report records, never the literal 0.
TEST(Parallel, JobsZeroUsesHardwareConcurrency) {
  const Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.jobs = 1;
  const std::string want = fingerprint(verify(g, opt));
  opt.jobs = 0;
  const VerifyResult r = verify(g, opt);
  EXPECT_EQ(fingerprint(r), want);
  EXPECT_GE(r.stats.parallel.jobs, 1);
  EXPECT_EQ(r.stats.parallel.jobs, sched::default_jobs(0));
  EXPECT_EQ(sched::default_jobs(0), sched::Pool::hardware_threads());
  EXPECT_EQ(r.stats.parallel.workers.size(),
            static_cast<std::size_t>(r.stats.parallel.jobs));
}

// Every engine shares one read-only Basis across the pool: no worker may
// replay the unfolding, and the verdict/witness must not depend on the
// worker count.  The scan engines need nothing beyond the Basis...
TEST(Parallel, ScanEnginesShareBasisWithoutReplay) {
  const Gadget g = gadgets::by_name("dom-2");
  for (EngineKind engine : {EngineKind::kLIL, EngineKind::kMAP}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.engine = engine;
    opt.jobs = 1;
    const std::string want = fingerprint(verify(g, opt));
    for (int jobs : {2, 4}) {
      opt.jobs = jobs;
      opt.shard_size = 7;
      const VerifyResult r = verify(g, opt);
      EXPECT_EQ(fingerprint(r), want)
          << engine_name(engine) << " jobs " << jobs;
      EXPECT_TRUE(r.stats.parallel.shared_basis)
          << engine_name(engine) << " jobs " << jobs;
      EXPECT_EQ(r.stats.parallel.replays, 0u)
          << engine_name(engine) << " jobs " << jobs;
      for (const WorkerStats& w : r.stats.parallel.workers)
        EXPECT_EQ(w.replays, 0u) << engine_name(engine) << " jobs " << jobs;
    }
  }
}

// ...and the ADD engines (MAPI, FUJITA) thaw the Basis' frozen forest into
// their private managers — the per-worker unfolding replays of the old
// runtime are gone for them too.  Verdicts and witnesses stay byte-identical
// to the serial run on every registry gadget.
TEST(Parallel, AddEnginesShareBasisWithoutReplay) {
  struct Case {
    std::string gadget;
    EngineKind engine;
    int order;
  };
  std::vector<Case> cases;
  // Every registry gadget, both ADD engines, at order 1 (FUJITA transforms
  // per combination, so depth 2 everywhere would dominate the suite)...
  for (const std::string& name : gadgets::all_names())
    for (EngineKind engine : {EngineKind::kMAPI, EngineKind::kFUJITA})
      cases.push_back({name, engine, 1});
  // ...plus full-depth coverage on the small gadgets.
  for (const char* name : {"dom-1", "isw-2", "ti-1", "dom-2"})
    for (EngineKind engine : {EngineKind::kMAPI, EngineKind::kFUJITA})
      cases.push_back({name, engine, 2});

  for (const Case& c : cases) {
    const Gadget g = gadgets::by_name(c.gadget);
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = c.order;
    opt.engine = c.engine;
    opt.jobs = 1;
    const std::string want = fingerprint(verify(g, opt));
    for (int jobs : {2, 4}) {
      opt.jobs = jobs;
      opt.shard_size = 7;
      const VerifyResult r = verify(g, opt);
      EXPECT_EQ(fingerprint(r), want) << c.gadget << " order " << c.order
                                      << " " << engine_name(c.engine)
                                      << " jobs " << jobs;
      EXPECT_TRUE(r.stats.parallel.shared_basis)
          << c.gadget << " " << engine_name(c.engine) << " jobs " << jobs;
      EXPECT_EQ(r.stats.parallel.replays, 0u)
          << c.gadget << " " << engine_name(c.engine) << " jobs " << jobs;
      EXPECT_GT(r.stats.frozen_nodes, 0u)
          << c.gadget << " " << engine_name(c.engine);
      for (const WorkerStats& w : r.stats.parallel.workers)
        EXPECT_EQ(w.replays, 0u)
            << c.gadget << " " << engine_name(c.engine) << " jobs " << jobs;
    }
  }
}

// Cross-engine parallel agreement: every engine returns the same verdict and
// the same failing combination (the witness coordinate may legitimately
// differ between representations) under both search orders and any job
// count.
TEST(Parallel, CrossEngineAgreementBothSearchOrders) {
  constexpr EngineKind kEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                     EngineKind::kMAPI, EngineKind::kFUJITA};
  for (const char* name : {"ti-1", "dom-1", "refresh-3", "isw-2"}) {
    const Gadget g = gadgets::by_name(name);
    for (int order : {1, 2}) {
      for (SearchOrder search :
           {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst}) {
        bool have_ref = false;
        bool ref_secure = false;
        std::vector<std::string> ref_combo;
        for (EngineKind engine : kEngines) {
          VerifyOptions opt;
          opt.notion = Notion::kSNI;
          opt.order = order;
          opt.engine = engine;
          opt.search_order = search;
          opt.jobs = 1;
          const VerifyResult serial = verify(g, opt);
          const std::string want = fingerprint(serial);
          for (int jobs : {2, 4}) {
            opt.jobs = jobs;
            opt.shard_size = 5;
            EXPECT_EQ(fingerprint(verify(g, opt)), want)
                << name << " order " << order << " "
                << engine_name(engine) << " jobs " << jobs;
          }
          const std::vector<std::string> combo =
              serial.counterexample ? serial.counterexample->observables
                                    : std::vector<std::string>{};
          if (!have_ref) {
            have_ref = true;
            ref_secure = serial.secure;
            ref_combo = combo;
          } else {
            EXPECT_EQ(serial.secure, ref_secure)
                << name << " order " << order << " " << engine_name(engine);
            EXPECT_EQ(combo, ref_combo)
                << name << " order " << order << " " << engine_name(engine);
          }
        }
      }
    }
  }
}

// search_position counts exactly what a walk in the search order checks up
// to and including a combination: compare it with the position in an
// explicitly sorted list of every combination.
TEST(Parallel, SearchPositionMatchesExplicitOrder) {
  for (bool largest : {false, true}) {
    for (int n = 1; n <= 8; ++n) {
      for (int order = 1; order <= 4; ++order) {
        std::vector<std::vector<int>> all;
        for (int k = 1; k <= std::min(order, n); ++k) {
          CombinationIter it(n, k);
          do all.push_back(it.indices()); while (it.next());
        }
        std::sort(all.begin(), all.end(),
                  [largest](const std::vector<int>& a,
                            const std::vector<int>& b) {
                    return combo_before(a, b, largest);
                  });
        for (std::size_t i = 0; i < all.size(); ++i)
          ASSERT_EQ(search_position(n, order, all[i], largest), i + 1)
              << "n " << n << " order " << order << " largest " << largest;
      }
    }
  }
}

// The combination count of an insecure run is the witness's position in
// the search order at every worker count: however the shards interleave,
// `combinations` and the deterministic report match the one-worker run.
// Small shards and repeated runs give the schedule room to differ.
TEST(Parallel, InsecureCountAndReportMatchOneWorker) {
  struct Case {
    const char* gadget;
    bool joint;
  };
  for (const Case c : {Case{"refresh-3", false}, Case{"composition", true}}) {
    const Gadget g = gadgets::by_name(c.gadget);
    for (SearchOrder search :
         {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst}) {
      VerifyOptions opt;
      opt.notion = Notion::kSNI;
      opt.order = 2;
      opt.joint_share_count = c.joint;
      opt.search_order = search;
      opt.deterministic_report = true;
      opt.jobs = 1;
      const VerifyResult serial = verify(g, opt);
      ASSERT_FALSE(serial.secure) << c.gadget;
      const std::string want = json_report(c.gadget, opt, serial, 0.0);
      for (int jobs : {2, 4}) {
        for (int run = 0; run < 20; ++run) {
          opt.jobs = jobs;
          opt.shard_size = 1;
          VerifyResult r = verify(g, opt);
          EXPECT_EQ(r.stats.combinations, serial.stats.combinations)
              << c.gadget << " jobs " << jobs << " run " << run;
          r.stats.parallel = ParallelStats{};
          opt.jobs = 1;
          EXPECT_EQ(json_report(c.gadget, opt, r, 0.0), want)
              << c.gadget << " jobs " << jobs << " run " << run;
        }
      }
    }
  }
}

// One worker walks the search order itself, so an insecure run checks
// exactly the combinations up to its witness.  Under depth-first search a
// witness with several observables lies past combinations of smaller sizes
// (keccak-2 at order 3: the witness is the third combination checked, of
// thousands of size 1 and 2): the blocks reach it in search order.
TEST(Parallel, OneWorkerChecksUpToTheWitness) {
  struct Case {
    const char* gadget;
    int order;
  };
  for (const Case c : {Case{"refresh-3", 2}, Case{"keccak-2", 3}}) {
    for (SearchOrder search :
         {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst}) {
      obs::Progress meter(obs::Progress::Options{500, false});
      VerifyOptions opt;
      opt.notion = Notion::kSNI;
      opt.order = c.order;
      opt.search_order = search;
      opt.jobs = 1;
      opt.progress = &meter;
      const VerifyResult r = verify(gadgets::by_name(c.gadget), opt);
      ASSERT_FALSE(r.secure) << c.gadget;
      EXPECT_EQ(meter.checked(), r.stats.combinations) << c.gadget;
    }
  }
}

// Whether a run was cut short is the shards' record, not the clock: a
// deadline that passes after the last combination was checked leaves the
// verdict of a complete run as it is.
TEST(Parallel, DeadlineAfterTheLastCombinationKeepsTheVerdict) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 1;
  opt.engine = EngineKind::kMAPI;
  const Gadget g = gadgets::by_name("isw-1");
  const VerifyResult want = verify(g, opt);
  ASSERT_TRUE(want.secure);

  const auto basis = build_gadget_basis(g, opt);
  ReportAssembler assembler(basis, opt);
  Driver driver(basis, opt);
  for (const sched::Shard& shard : sched::plan_depth_first_blocks(
           static_cast<int>(basis->size()), opt.order, 1)) {
    PartialReport part;
    driver.run_shard_partial(shard, nullptr, part);
    ASSERT_TRUE(part.complete);
    assembler.add(std::move(part));
  }
  sched::CancelToken token;
  token.set_deadline_after(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(token.expired());
  const VerifyResult r = assembler.finalize(&token);
  EXPECT_EQ(fingerprint(r), fingerprint(want));
  EXPECT_EQ(r.stats.combinations, want.stats.combinations);
}

}  // namespace
}  // namespace sani::verify
