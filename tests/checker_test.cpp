#include <gtest/gtest.h>

#include <set>

#include "circuit/builder.h"
#include "circuit/unfold.h"
#include "test_util.h"
#include "verify/checker.h"

namespace sani::verify {
namespace {

using test::Rng;

// Fixture: 2 secrets x 3 shares, 3 randoms, 1 public = 10 variables.
circuit::Gadget fixture() {
  circuit::GadgetBuilder b("fix");
  auto a = b.secret("a", 3);
  auto bb = b.secret("b", 3);
  auto r = b.randoms("r", 3);
  b.public_input("p");
  circuit::WireId t = b.xor_(b.and_(a[0], bb[0]), r[0]);
  t = b.xor_(t, r[1]);
  b.output_group("c", {t, b.xor_(a[1], bb[1]), b.xor_(a[2], r[2])});
  return b.build();
}

class RegionEquivalence
    : public ::testing::TestWithParam<std::tuple<Notion, bool, int>> {};

// The ForbiddenRegion enumeration and Checker::coefficient_violates are two
// formulations of the same T matrix: a coordinate is enumerated by the
// region iff the checker flags it (restricted to the rho = 0 slice the
// region spans).  Exhaustive over the full 2^10 coordinate space.
TEST_P(RegionEquivalence, RegionMatchesCoefficientPredicate) {
  auto [notion, joint, internal] = GetParam();
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker checker(vars, notion, joint);

  RowContext row;
  row.num_observables = 3;
  row.num_internal = internal;
  row.num_outputs = 3 - internal;
  for (int i = 0; i < row.num_outputs; ++i) row.add_output_index(i);

  // The fixture's public never feeds logic, but the region should still
  // honour an explicit extra-variable request.
  ForbiddenRegion region(checker, vars, row, vars.public_vars);

  // Collect the region's coordinates.
  std::set<std::uint64_t> enumerated;
  Mask witness;
  region.find_violation(
      [&](const Mask& alpha) {
        enumerated.insert(alpha.lo);
        return false;  // never "hit": we want the full enumeration
      },
      &witness);

  for (std::uint64_t bits = 0; bits < (1u << vars.num_vars); ++bits) {
    Mask alpha{bits, 0};
    const bool flagged = checker.coefficient_violates(alpha, row);
    const bool in_region = enumerated.count(bits) > 0;
    if (alpha.intersects(vars.random_vars)) {
      // rho != 0: outside the region by construction, and never a
      // violation for the checker either.
      EXPECT_FALSE(flagged) << alpha.to_string();
      EXPECT_FALSE(in_region) << alpha.to_string();
    } else {
      EXPECT_EQ(in_region, flagged)
          << alpha.to_string() << " notion=" << notion_name(notion)
          << " joint=" << joint << " internal=" << internal;
    }
  }

  EXPECT_EQ(region.empty(), enumerated.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllNotions, RegionEquivalence,
    ::testing::Combine(::testing::Values(Notion::kProbing, Notion::kNI,
                                         Notion::kSNI, Notion::kPINI),
                       ::testing::Bool(), ::testing::Values(0, 1, 3)));

TEST(Region, SpaceSizeAndLimit) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker checker(vars, Notion::kSNI);
  RowContext row;
  row.num_observables = 1;
  row.num_internal = 1;
  ForbiddenRegion region(checker, vars, row, Mask{});
  EXPECT_EQ(region.space_size(), 64u);  // 6 share bits, publics excluded
}

TEST(Region, EarlyExitReturnsWitness) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker checker(vars, Notion::kSNI);
  RowContext row;
  row.num_observables = 2;
  row.num_internal = 0;  // threshold 0: any share coordinate is forbidden
  ForbiddenRegion region(checker, vars, row, Mask{});
  Mask witness;
  std::uint64_t visited = 0;
  const Mask target = vars.secret_vars[0] & Mask::first_n(64);
  bool hit = region.find_violation(
      [&](const Mask& alpha) { return alpha == Mask::bit(target.lowest_bit()); },
      &witness, &visited);
  EXPECT_TRUE(hit);
  EXPECT_EQ(witness, Mask::bit(target.lowest_bit()));
  EXPECT_GT(visited, 0u);
}

TEST(Checker, ThresholdsByNotion) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  RowContext row;
  row.num_observables = 3;
  row.num_internal = 1;
  EXPECT_EQ(Checker(vars, Notion::kNI).threshold(row), 3);
  EXPECT_EQ(Checker(vars, Notion::kSNI).threshold(row), 1);
}

TEST(Checker, UnionViolationMessages) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker sni(vars, Notion::kSNI);
  RowContext row;
  row.num_observables = 2;
  row.num_internal = 1;
  std::vector<Mask> V(2);
  V[0] = vars.secret_vars[0];  // all three shares of secret 0
  std::string reason;
  EXPECT_TRUE(sni.union_violates(V, row, &reason));
  EXPECT_NE(reason.find("3 shares"), std::string::npos);
  V[0] = Mask::bit(vars.secret_share_var[0][0]);
  EXPECT_FALSE(sni.union_violates(V, row, &reason));
}

}  // namespace
}  // namespace sani::verify
