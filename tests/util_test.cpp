// Unit tests for the util layer: RNG, InlineVector, stats, CSV, tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/inline_vector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(13);
  constexpr std::uint64_t kBound = 7;
  constexpr int kSamples = 70000;
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_GT(counts[v], kSamples / static_cast<int>(kBound) * 8 / 10);
    EXPECT_LT(counts[v], kSamples / static_cast<int>(kBound) * 12 / 10);
  }
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  const auto original = v;
  rng.shuffle(std::span<int>(v));
  EXPECT_NE(v, original);
}

TEST(InlineVector, StartsEmpty) {
  InlineVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(InlineVector, PushPopAndIndex) {
  InlineVector<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 20);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.back(), 10);
}

TEST(InlineVector, OverflowThrows) {
  InlineVector<int, 2> v{1, 2};
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(v.push_back(3), CheckError);
    // A failed push is a no-op: size and contents are untouched.
    EXPECT_EQ(v.size(), v.capacity());
    EXPECT_EQ(v, (InlineVector<int, 2>{1, 2}));
    // Emptying and refilling crosses the capacity boundary again.
    v.pop_back();
    v.pop_back();
    EXPECT_TRUE(v.empty());
    v.push_back(1);
    v.push_back(2);
  }
  EXPECT_THROW(v.emplace_back(3), CheckError);
}

TEST(InlineVector, AlignedPushPopAcrossCapacityBoundary) {
  // Storage is aligned to alignof(T), so an over-aligned element keeps its
  // alignment in every slot while the vector fills, overflows and drains.
  struct alignas(64) Slot {
    std::uint32_t value;
  };
  static_assert(alignof(InlineVector<Slot, 4>) == 64);
  InlineVector<Slot, 4> v;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) v.push_back(Slot{round * 10 + i});
    EXPECT_EQ(v.size(), v.capacity());
    for (const Slot& s : v) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&s) % 64, 0u);
    }
    EXPECT_THROW(v.push_back(Slot{99}), CheckError);  // overflow stays checked
    EXPECT_EQ(v.size(), 4u);                          // failed push is a no-op
    for (std::uint32_t i = 4; i-- > 0;) {
      EXPECT_EQ(v.back().value, round * 10 + i);
      v.pop_back();
    }
    EXPECT_TRUE(v.empty());
  }
  EXPECT_THROW(v.pop_back(), CheckError);
}

TEST(InlineVector, OutOfRangeIndexThrows) {
  InlineVector<int, 4> v{1};
  EXPECT_THROW(v[1], CheckError);
  EXPECT_THROW((InlineVector<int, 4>{}.pop_back()), CheckError);
}

TEST(InlineVector, CopyAndMove) {
  InlineVector<std::string, 4> v{"a", "b"};
  auto copy = v;
  EXPECT_EQ(copy, v);
  auto moved = std::move(v);
  EXPECT_EQ(moved, copy);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move) — documented
}

TEST(InlineVector, Contains) {
  InlineVector<int, 4> v{1, 3};
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(2));
}

TEST(InlineVector, NontrivialDestructorsRun) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    ~Probe() {
      if (c) ++*c;
    }
  };
  {
    InlineVector<Probe, 4> v;
    v.emplace_back(Probe{counter});  // Probe's user-declared destructor
    v.emplace_back(Probe{counter});  // suppresses the move ctor: the
                                     // temporaries are copied and count too
    *counter = 0;                    // ignore the temporaries
  }
  EXPECT_EQ(*counter, 2);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Samples, PercentilesAndExtremes) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_THROW(s.percentile(0.5), CheckError);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  {
    CsvWriter csv(out, {"a", "b"});
    csv.row().add(std::int64_t{1}).add("x");
    csv.row().add(std::int64_t{2}).add("y,z");
  }
  EXPECT_EQ(out.str(), "a,b\n1,x\n2,\"y,z\"\n");
}

TEST(Csv, EscapesQuotes) {
  std::ostringstream out;
  CsvWriter csv(out, {"v"});
  csv.row().add("say \"hi\"");
  EXPECT_EQ(out.str(), "v\n\"say \"\"hi\"\"\"\n");
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"n", "steps"});
  t.row().add(std::int64_t{8}).add(std::int64_t{12345});
  t.row().add(std::int64_t{128}).add(std::int64_t{7});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header plus two rows, all right-aligned to the widest cell.
  EXPECT_EQ(s, "  n  steps\n  8  12345\n128      7\n");
}

TEST(Table, RowArityMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.row().add("only one"), CheckError);
}

TEST(Check, MessageCarriesContext) {
  try {
    HP_CHECK(1 == 2, "the detail");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the detail"), std::string::npos);
  }
}

}  // namespace
}  // namespace hp
