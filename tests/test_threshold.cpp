// Threshold filter tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "reference_common.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "viz/filters/threshold.h"

namespace pviz::vis {
namespace {

UniformGrid zGrid(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("z", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).z);
  }
  g.addField(std::move(f));
  return g;
}

TEST(Threshold, KeepsEverythingForFullRange) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = zGrid(8);
  ThresholdFilter filter;
  filter.setRange(-1.0, 2.0);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.kept.numCells(), g.numCells());
}

TEST(Threshold, KeepsNothingForEmptyRange) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = zGrid(8);
  ThresholdFilter filter;
  filter.setRange(5.0, 6.0);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.kept.numCells(), 0);
}

TEST(Threshold, LinearFieldKeepsExactSlabOfCells)  {
  // Cell average of z is (k + 0.5) * h; keep the bottom half exactly.
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const Id n = 10;
  const UniformGrid g = zGrid(n);
  ThresholdFilter filter;
  filter.setRange(0.0, 0.5);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.kept.numCells(), n * n * (n / 2));
}

TEST(Threshold, KeptCellsActuallySatisfyRange) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = zGrid(9);
  ThresholdFilter filter;
  filter.setRange(0.3, 0.7);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_GT(result.kept.numCells(), 0);
  const Field& f = g.field("z");
  for (Id i = 0; i < result.kept.numCells(); ++i) {
    const Id cell = result.kept.cellIds[static_cast<std::size_t>(i)];
    Id pts[8];
    g.cellPointIds(g.cellIjk(cell), pts);
    double avg = 0.0;
    for (int k = 0; k < 8; ++k) avg += f.value(pts[k]);
    avg /= 8.0;
    ASSERT_GE(avg, 0.3);
    ASSERT_LE(avg, 0.7);
    ASSERT_DOUBLE_EQ(result.kept.cellScalars[static_cast<std::size_t>(i)],
                     avg);
  }
}

TEST(Threshold, CellIdsAreSortedAndUnique) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = zGrid(7);
  ThresholdFilter filter;
  filter.setRange(0.2, 0.9);
  const auto result = filter.run(ctx, g, "z");
  for (std::size_t i = 1; i < result.kept.cellIds.size(); ++i) {
    ASSERT_LT(result.kept.cellIds[i - 1], result.kept.cellIds[i]);
  }
}

TEST(Threshold, CellAssociatedFieldPath) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  UniformGrid g = UniformGrid::cube(4);
  Field f = Field::zeros("c", Association::Cells, 1, g.numCells());
  for (Id c = 0; c < g.numCells(); ++c) {
    f.setScalar(c, static_cast<double>(c));
  }
  g.addField(std::move(f));
  ThresholdFilter filter;
  filter.setRange(10.0, 20.0);
  const auto result = filter.run(ctx, g, "c");
  EXPECT_EQ(result.kept.numCells(), 11);
  EXPECT_EQ(result.kept.cellIds.front(), 10);
  EXPECT_EQ(result.kept.cellIds.back(), 20);
}

TEST(Threshold, BoundaryValuesAreInclusive) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  UniformGrid g = UniformGrid::cube(2);
  Field f = Field::zeros("c", Association::Cells, 1, g.numCells());
  for (Id c = 0; c < g.numCells(); ++c) f.setScalar(c, 1.0);
  g.addField(std::move(f));
  ThresholdFilter filter;
  filter.setRange(1.0, 1.0);
  EXPECT_EQ(filter.run(ctx, g, "c").kept.numCells(), g.numCells());
}

TEST(Threshold, RejectsInvertedRangeAndVectorField) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  ThresholdFilter filter;
  EXPECT_THROW(filter.setRange(2.0, 1.0), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  filter.setRange(0.0, 1.0);
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);
}

TEST(Threshold, ProfileHasThreePhasesPlusElements) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = zGrid(6);
  ThresholdFilter filter;
  filter.setRange(0.0, 1.0);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.profile.kernel, "threshold");
  EXPECT_EQ(result.profile.elements, g.numCells());
  EXPECT_EQ(result.profile.phases.size(), 3u);
}

// Property: for the linear field, kept count is monotone in the range
// width and complementary ranges partition the cells.
class ThresholdSplit : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSplit, ComplementaryRangesPartitionCells) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const double split = GetParam();
  const UniformGrid g = zGrid(8);
  ThresholdFilter below;
  below.setRange(-1.0, split);
  ThresholdFilter above;
  above.setRange(std::nextafter(split, 2.0), 2.0);
  const Id nBelow = below.run(ctx, g, "z").kept.numCells();
  const Id nAbove = above.run(ctx, g, "z").kept.numCells();
  EXPECT_EQ(nBelow + nAbove, g.numCells());
}

INSTANTIATE_TEST_SUITE_P(Splits, ThresholdSplit,
                         ::testing::Values(0.1, 0.3, 0.4375, 0.5, 0.62, 0.9));

// ---- the row sweep against a cell-by-cell serial reference ----

/// Each cell's value in ascending cell order: the c0..c7-order corner
/// average of point field `fieldName`.
std::vector<double> referenceCellValues(const UniformGrid& grid,
                                        const std::string& fieldName) {
  const std::vector<double>& values = grid.field(fieldName).data();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(grid.numCells()));
  for (Id cell = 0; cell < grid.numCells(); ++cell) {
    Id ids[8];
    grid.cellPointIds(grid.cellIjk(cell), ids);
    double sum = 0.0;
    for (const Id id : ids) sum += values[static_cast<std::size_t>(id)];
    out.push_back(sum / 8.0);
  }
  return out;
}

/// The cells whose value lies in the inclusive band [lo, hi], ascending.
HexSubset referenceThreshold(const std::vector<double>& cellValues, double lo,
                             double hi) {
  HexSubset kept;
  for (std::size_t cell = 0; cell < cellValues.size(); ++cell) {
    const double v = cellValues[cell];
    if (v >= lo && v <= hi) {
      kept.cellIds.push_back(static_cast<Id>(cell));
      kept.cellScalars.push_back(v);
    }
  }
  return kept;
}

/// Threshold the wavy field of a `cells` grid with a band whose ends are
/// two of its own cell values (so both inclusive edges are hit), and
/// compare with the reference bit for bit on every exec config.
void expectMatchesReferenceOnEveryConfig(Id3 cells) {
  const UniformGrid g = reftest::wavyGrid(cells);
  const std::vector<double> cellValues = referenceCellValues(g, "w");
  std::vector<double> sorted = cellValues;
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted[sorted.size() / 4];
  const double hi = sorted[sorted.size() * 2 / 3];
  const HexSubset want = referenceThreshold(cellValues, lo, hi);
  ASSERT_GT(want.numCells(), 0);
  ThresholdFilter filter;
  filter.setRange(lo, hi);
  for (unsigned workers : reftest::poolWidths()) {
    SCOPED_TRACE(reftest::poolLabel(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    const HexSubset got = filter.run(ctx, g, "w").kept;
    EXPECT_EQ(got.cellIds, want.cellIds);
    EXPECT_TRUE(reftest::sameBits(got.cellScalars, want.cellScalars));
  }
}

TEST(ThresholdReference, RowsShorterThanTheGrain) {
  expectMatchesReferenceOnEveryConfig({37, 13, 11});
}

TEST(ThresholdReference, RowsLongerThanTheGrain) {
  const Id3 cells{1100, 4, 3};
  ASSERT_GE(cells.i, util::kDefaultGrain);
  expectMatchesReferenceOnEveryConfig(cells);
}

TEST(ThresholdReference, OneCellWideRows) {
  expectMatchesReferenceOnEveryConfig({1, 17, 9});
}

TEST(ThresholdReference, OneByOneByNColumn) {
  expectMatchesReferenceOnEveryConfig({1, 1, 200});
}

}  // namespace
}  // namespace pviz::vis
