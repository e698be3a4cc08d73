#include <gtest/gtest.h>

#include <optional>

#include "circuit/builder.h"
#include "test_util.h"
#include "verify/bruteforce.h"
#include "verify/engine.h"

namespace sani::verify {
namespace {

using circuit::Gadget;
using circuit::GadgetBuilder;
using circuit::WireId;
using test::Rng;

// Differential fuzzing: random small masked circuits, every spectral
// engine against the exhaustive distribution oracle, across notions,
// counting modes and probe models.  Random circuits exercise corners the
// curated gadgets never hit (constant subfunctions, duplicated wires,
// redundant randomness, asymmetric share usage).

Gadget random_gadget(Rng& rng, int num_secrets, int shares, int randoms,
                     int gates) {
  GadgetBuilder b("fuzz");
  std::vector<WireId> wires;
  for (int s = 0; s < num_secrets; ++s) {
    auto group = b.secret("s" + std::to_string(s), shares);
    wires.insert(wires.end(), group.begin(), group.end());
  }
  for (WireId w : b.randoms("r", randoms)) wires.push_back(w);

  auto pick = [&] { return wires[rng.below(static_cast<std::uint32_t>(wires.size()))]; };
  for (int i = 0; i < gates; ++i) {
    WireId w = circuit::kNoWire;
    switch (rng.below(6)) {
      case 0: w = b.and_(pick(), pick()); break;
      case 1: w = b.or_(pick(), pick()); break;
      case 2: w = b.xor_(pick(), pick()); break;
      case 3: w = b.not_(pick()); break;
      case 4: w = b.mux(pick(), pick(), pick()); break;
      default: w = b.reg(pick()); break;
    }
    wires.push_back(w);
  }
  // Output group: `shares` wires drawn from the tail (likely non-inputs).
  std::vector<WireId> outs;
  for (int i = 0; i < shares; ++i) outs.push_back(b.buf(pick()));
  b.output_group("o", outs);
  return b.build();
}

struct FuzzCase {
  std::uint64_t seed;
  Notion notion;
  bool joint;
  bool robust;
};

class Differential : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(Differential, EnginesMatchOracleOnRandomCircuits) {
  const FuzzCase c = GetParam();
  Rng rng(c.seed);
  for (int trial = 0; trial < 6; ++trial) {
    Gadget g = random_gadget(rng, 2, 2, 2, 6 + static_cast<int>(rng.below(5)));

    VerifyOptions opt;
    opt.notion = c.notion;
    opt.order = 1 + static_cast<int>(rng.below(2));
    opt.joint_share_count = c.joint;
    opt.probes.glitch_robust = c.robust;

    VerifyResult oracle;
    try {
      oracle = verify_bruteforce(g, opt);
    } catch (const std::invalid_argument&) {
      continue;  // tuple too wide for the oracle (robust cones) — skip
    }
    std::optional<VerifyResult> map;
    for (EngineKind e : {EngineKind::kLIL, EngineKind::kMAP,
                         EngineKind::kMAPI, EngineKind::kFUJITA,
                         EngineKind::kCOEF}) {
      opt.engine = e;
      VerifyResult r = verify(g, opt);
      if (e == EngineKind::kMAP) map = r;
      if (e == EngineKind::kCOEF && r.counterexample) {
        // COEF reports the coordinate the MAP region scan finds.
        ASSERT_TRUE(map && map->counterexample);
        EXPECT_EQ(r.counterexample->observables,
                  map->counterexample->observables);
        EXPECT_EQ(r.counterexample->alpha, map->counterexample->alpha)
            << "seed=" << c.seed << " trial=" << trial;
      }
      ASSERT_EQ(r.secure, oracle.secure)
          << "seed=" << c.seed << " trial=" << trial << " engine "
          << engine_name(e) << " notion " << notion_name(c.notion)
          << " joint=" << c.joint << " robust=" << c.robust << " d="
          << opt.order
          << (oracle.counterexample
                  ? " oracle reason: " + oracle.counterexample->reason
                  : std::string(" oracle: secure"));
    }
  }
}

std::vector<FuzzCase> make_cases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1000;
  for (Notion notion :
       {Notion::kProbing, Notion::kNI, Notion::kSNI, Notion::kPINI})
    for (bool joint : {false, true})
      for (bool robust : {false, true}) {
        if (joint && (notion == Notion::kProbing || notion == Notion::kPINI))
          continue;  // counting mode only affects NI/SNI
        cases.push_back({seed++, notion, joint, robust});
      }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, Differential,
                         ::testing::ValuesIn(make_cases()));

TEST(Differential, ThreeShareRandomCircuits) {
  // A smaller sweep at 3 shares (deeper thresholds, PINI index groups).
  Rng rng(777);
  for (int trial = 0; trial < 4; ++trial) {
    Gadget g = random_gadget(rng, 1, 3, 2, 7);
    for (Notion notion : {Notion::kProbing, Notion::kNI, Notion::kSNI}) {
      VerifyOptions opt;
      opt.notion = notion;
      opt.order = 2;
      VerifyResult oracle = verify_bruteforce(g, opt);
      opt.engine = EngineKind::kMAPI;
      ASSERT_EQ(verify(g, opt).secure, oracle.secure)
          << "trial=" << trial << " " << notion_name(notion);
    }
  }
}

}  // namespace
}  // namespace sani::verify
