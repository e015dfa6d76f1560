// Common substrate: RNG determinism, matrices, stats, table formatting and
// the simulated clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace djvm {
namespace {

TEST(Rng, DeterministicForSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  SplitMix64 r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, RoughlyUniformBuckets) {
  // Ten equal buckets over [0, 1): the coefficient of variation of their
  // counts stays small.
  constexpr int kDraws = 100000;
  SplitMix64 r(11);
  std::array<double, 10> counts{};
  for (int i = 0; i < kDraws; ++i) {
    counts[static_cast<std::size_t>(r.next_double() * counts.size())] += 1.0;
  }
  const double m = static_cast<double>(kDraws) / counts.size();
  double var = 0.0;
  for (double c : counts) var += (c - m) * (c - m);
  EXPECT_LT(std::sqrt(var / counts.size()) / m, 0.05);
}

TEST(Matrix, SymmetricAdd) {
  SquareMatrix m(4);
  m.add_symmetric(1, 2, 10.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 10.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 10.0);
  EXPECT_DOUBLE_EQ(m.total(), 20.0);
}

TEST(Matrix, DiagonalAddIsSingle) {
  SquareMatrix m(3);
  m.add_symmetric(1, 1, 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.total(), 5.0);
}

TEST(Matrix, Scale) {
  SquareMatrix m(2);
  m.at(0, 1) = 3.0;
  m.scale(4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 12.0);
}

TEST(Matrix, EqualityAndFill) {
  SquareMatrix a(3), b(3);
  a.fill(1.5);
  b.fill(1.5);
  EXPECT_EQ(a, b);
  b.at(2, 2) = 0.0;
  EXPECT_NE(a, b);
}

TEST(Stats, Median) {
  const double even[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  const double odd[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SimClock, AdvanceAndAlign) {
  SimClock c;
  c.advance(100);
  EXPECT_EQ(c.now(), 100u);
  c.align_to(50);  // never backwards
  EXPECT_EQ(c.now(), 100u);
  c.align_to(250);
  EXPECT_EQ(c.now(), 250u);
}

TEST(SimCosts, TransferTimeMatchesBandwidth) {
  SimCosts costs;
  // 12.5 MB/s -> 0.0125 bytes/ns -> 80 ns per byte.
  EXPECT_EQ(costs.transfer_time(125), 10000u);
}

TEST(SimTime, Conversions) {
  EXPECT_EQ(sim_us(3), 3000u);
  EXPECT_EQ(sim_ms(2), 2000000u);
}

TEST(Table, FormatsCells) {
  EXPECT_EQ(TextTable::cell(std::uint64_t{42}), "42");
  EXPECT_EQ(TextTable::cell(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::na(), "N/A");
  EXPECT_EQ(TextTable::cell_pct(0.9542), "95.42%");
  const std::string c = TextTable::cell_with_pct(103.0, 100.0);
  EXPECT_NE(c.find("103"), std::string::npos);
  EXPECT_NE(c.find("+3.00%"), std::string::npos);
}

TEST(Table, PrintAligns) {
  TextTable t({"A", "LongHeader"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("LongHeader"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

}  // namespace
}  // namespace djvm
