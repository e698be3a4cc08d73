#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/combinations.h"
#include "util/mask.h"
#include "util/table.h"
#include "obs/clock.h"

namespace sani {
namespace {

TEST(Mask, BitBasics) {
  Mask m;
  EXPECT_TRUE(m.empty());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(127);
  EXPECT_EQ(m.popcount(), 4);
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_FALSE(m.test(65));
  m.reset(64);
  EXPECT_FALSE(m.test(64));
  EXPECT_EQ(m.lowest_bit(), 0);
  EXPECT_EQ(m.highest_bit(), 127);
}

TEST(Mask, BitFactory) {
  for (int i : {0, 1, 63, 64, 100, 127}) {
    Mask m = Mask::bit(i);
    EXPECT_EQ(m.popcount(), 1);
    EXPECT_TRUE(m.test(i));
  }
}

TEST(Mask, FirstN) {
  EXPECT_TRUE(Mask::first_n(0).empty());
  EXPECT_EQ(Mask::first_n(5).popcount(), 5);
  EXPECT_EQ(Mask::first_n(64).popcount(), 64);
  EXPECT_EQ(Mask::first_n(65).popcount(), 65);
  EXPECT_EQ(Mask::first_n(128).popcount(), 128);
  EXPECT_TRUE(Mask::first_n(65).test(64));
  EXPECT_FALSE(Mask::first_n(65).test(65));
}

TEST(Mask, SetAlgebra) {
  Mask a = Mask::bit(3) | Mask::bit(70);
  Mask b = Mask::bit(3) | Mask::bit(5);
  EXPECT_EQ((a & b), Mask::bit(3));
  EXPECT_EQ((a ^ b), Mask::bit(70) | Mask::bit(5));
  EXPECT_EQ((a - b), Mask::bit(70));
  EXPECT_TRUE(Mask::bit(3).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE((a - b).intersects(b));
}

TEST(Mask, DotIsGf2InnerProduct) {
  Mask a = Mask::bit(1) | Mask::bit(2) | Mask::bit(100);
  EXPECT_TRUE(a.dot(Mask::bit(1)));
  EXPECT_FALSE(a.dot(Mask::bit(1) | Mask::bit(2)));
  EXPECT_TRUE(a.dot(Mask::bit(1) | Mask::bit(2) | Mask::bit(100)));
  EXPECT_FALSE(a.dot(Mask::bit(7)));
}

TEST(Mask, ForEachBitAscending) {
  Mask m = Mask::bit(5) | Mask::bit(64) | Mask::bit(9);
  std::vector<int> bits;
  m.for_each_bit([&](int i) { bits.push_back(i); });
  EXPECT_EQ(bits, (std::vector<int>{5, 9, 64}));
  EXPECT_EQ(m.to_string(), "{5,9,64}");
}

TEST(Mask, OrderingIsTotal) {
  Mask a = Mask::bit(3);
  Mask b = Mask::bit(64);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(Combinations, EnumeratesAll) {
  CombinationIter it(5, 3);
  ASSERT_TRUE(it.valid());
  int count = 0;
  std::vector<int> first = it.indices();
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  do {
    ++count;
  } while (it.next());
  EXPECT_EQ(count, 10);
}

TEST(Combinations, EdgeCases) {
  EXPECT_FALSE(CombinationIter(3, 4).valid());
  CombinationIter zero(3, 0);
  EXPECT_TRUE(zero.valid());
  EXPECT_TRUE(zero.indices().empty());
  EXPECT_FALSE(zero.next());
  CombinationIter full(3, 3);
  EXPECT_EQ(full.indices(), (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(full.next());
}

TEST(Combinations, Binomial) {
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(4, 5), 0u);
  EXPECT_EQ(binomial(60, 30), 118264581564861424ull);
  EXPECT_EQ(count_combinations_up_to(4, 2), 4u + 6u);
}

// Rank/unrank against a reference that shares no code with the library:
// every size-k subset of {0..n-1} from the n-bit masks, as ascending index
// vectors, sorted lexicographically — the rank of a subset is its position.
TEST(Combinations, RankAndUnrankMatchNaiveReferenceExhaustively) {
  for (int n = 0; n <= 14; ++n) {
    std::vector<std::vector<std::vector<int>>> by_size(
        static_cast<std::size_t>(n + 1));
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<int> combo;
      for (int i = 0; i < n; ++i)
        if (bits & (1u << i)) combo.push_back(i);
      by_size[combo.size()].push_back(std::move(combo));
    }
    for (int k = 0; k <= n; ++k) {
      std::vector<std::vector<int>>& all =
          by_size[static_cast<std::size_t>(k)];
      std::sort(all.begin(), all.end());
      ASSERT_EQ(binomial(n, k), all.size()) << n << " " << k;
      ASSERT_EQ(binomial_table(n, k)(n, k), all.size()) << n << " " << k;
      for (std::uint64_t rank = 0; rank < all.size(); ++rank) {
        ASSERT_EQ(combination_rank(n, all[rank]), rank) << n << " " << k;
        ASSERT_EQ(unrank_combination(n, k, rank), all[rank])
            << n << " " << k << " " << rank;
      }
    }
  }
}

TEST(Combinations, BinomialTableMatchesBinomial) {
  const BinomialTable table(70, 8);
  EXPECT_TRUE(table.covers(70, 8));
  EXPECT_FALSE(table.covers(71, 8));
  for (int m = 0; m <= 70; ++m)
    for (int j = 0; j <= 8; ++j)
      EXPECT_EQ(table(m, j), binomial(m, j)) << m << " " << j;
}

// The depth-first order over every size 1..d is plain lexicographic
// vector order: next_depth_first walks it and unrank_depth_first indexes it.
TEST(Combinations, DepthFirstWalkAndUnrankFollowLexicographicOrder) {
  for (int n = 1; n <= 8; ++n) {
    for (int d = 1; d <= 4; ++d) {
      std::vector<std::vector<int>> all;
      for (int k = 1; k <= std::min(d, n); ++k) {
        CombinationIter it(n, k);
        do all.push_back(it.indices()); while (it.next());
      }
      std::sort(all.begin(), all.end());
      ASSERT_EQ(all.size(), count_combinations_up_to(n, d));
      std::vector<int> walk = all.front();
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(walk, all[i]) << n << " " << d << " " << i;
        ASSERT_EQ(unrank_depth_first(n, d, i), all[i])
            << n << " " << d << " " << i;
        ASSERT_EQ(next_depth_first(walk, n, d), i + 1 < all.size())
            << n << " " << d << " " << i;
      }
    }
  }
}

TEST(Timers, Accumulates) {
  PhaseTimers t;
  t.add("a", 1.0);
  t.add("b", 2.0);
  t.add("a", 0.5);
  EXPECT_DOUBLE_EQ(t.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(t.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 3.5);
  EXPECT_EQ(t.names().size(), 2u);
}

TEST(Table, RendersAlignedAscii) {
  TextTable t({"name", "value"});
  t.row().add("x").add(std::int64_t{42});
  t.row().add("longer").add(3.14159, 2);
  std::string s = t.to_ascii();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 3.14  |"), std::string::npos);
  std::string md = t.to_markdown();
  EXPECT_NE(md.find("|--------|-------|"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  TextTable t({"name", "note"});
  t.row().add("plain").add("with,comma");
  t.row().add("q\"uote").add("multi\nline");
  std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,note\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"uote\""), std::string::npos);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--full", "--level", "3",
                        "--gadget=dom-2", "positional"};
  CliArgs args(6, argv);
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("quick"));
  EXPECT_EQ(args.value_int("level", 1), 3);
  EXPECT_EQ(args.value_or("gadget", ""), "dom-2");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "positional");
}

// Numeric flags parse the whole value or fail with a message naming the
// flag; nothing falls back silently to 0 or to the default.
std::string cli_error(const char* flag, const char* value, bool as_double,
                      bool as_u64 = false) {
  const char* argv[] = {"prog", flag, value};
  const CliArgs args(3, argv);
  const std::string name = std::string(flag).substr(2);
  try {
    if (as_u64)
      args.value_u64(name, 1);
    else if (as_double)
      args.value_double(name, 1.0);
    else
      args.value_int(name, 1);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(Cli, NumericFlagsParseTheWholeValue) {
  const char* argv[] = {"prog",          "--jobs",  "-4",   "--time-limit",
                        "0.25",          "--order", "+2",   "--memo=-1",
                        "--scale=1e-3"};
  const CliArgs args(9, argv);
  EXPECT_EQ(args.value_int("jobs", 1), -4);
  EXPECT_DOUBLE_EQ(args.value_double("time-limit", 0.0), 0.25);
  EXPECT_EQ(args.value_int("memo", 64), -1);
  EXPECT_DOUBLE_EQ(args.value_double("scale", 0.0), 1e-3);
  EXPECT_EQ(args.value_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(args.value_double("absent", 2.5), 2.5);
  // from_chars takes no leading '+'.
  EXPECT_EQ(cli_error("--order", "+2", false),
            "--order: expected an integer, got '+2'");
}

TEST(Cli, MalformedNumericFlagsAreTypedErrors) {
  EXPECT_EQ(cli_error("--jobs", "abc", false),
            "--jobs: expected an integer, got 'abc'");
  EXPECT_EQ(cli_error("--order", "abc", false),
            "--order: expected an integer, got 'abc'");
  EXPECT_EQ(cli_error("--jobs", "4x", false),
            "--jobs: expected an integer, got '4x'");
  EXPECT_EQ(cli_error("--jobs", "2.5", false),
            "--jobs: expected an integer, got '2.5'");
  EXPECT_EQ(cli_error("--jobs", "99999999999", false),
            "--jobs: expected an integer in range, got '99999999999'");
  EXPECT_EQ(cli_error("--time-limit", "nope", true),
            "--time-limit: expected a number, got 'nope'");
  EXPECT_EQ(cli_error("--time-limit", "1s", true),
            "--time-limit: expected a number, got '1s'");
  EXPECT_EQ(cli_error("--time-limit", "1e999", true),
            "--time-limit: expected a number in range, got '1e999'");
  EXPECT_EQ(cli_error("--time-limit", "inf", true),
            "--time-limit: expected a finite number, got 'inf'");
  EXPECT_EQ(cli_error("--time-limit", "nan", true),
            "--time-limit: expected a finite number, got 'nan'");
  // Byte caps and shard sizes: no negative value wraps round to 2^64 - 1,
  // and no trailing garbage truncates the cap.
  EXPECT_EQ(cli_error("--shard-size", "-1", false, true),
            "--shard-size: expected a non-negative integer, got '-1'");
  EXPECT_EQ(cli_error("--store-max-bytes", "12abc", false, true),
            "--store-max-bytes: expected a non-negative integer, got '12abc'");
  EXPECT_EQ(cli_error("--journal-max-bytes", "1e6", false, true),
            "--journal-max-bytes: expected a non-negative integer, got '1e6'");
  EXPECT_EQ(
      cli_error("--store-max-bytes", "18446744073709551616", false, true),
      "--store-max-bytes: expected a non-negative integer in range, got "
      "'18446744073709551616'");
  const char* argv[] = {"prog", "--store-max-bytes", "18446744073709551615"};
  EXPECT_EQ(CliArgs(3, argv).value_u64("store-max-bytes", 0),
            std::uint64_t{18446744073709551615u});
}

}  // namespace
}  // namespace sani
