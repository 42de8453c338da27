// Contour (marching cubes) geometric correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "contour_reference.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "viz/filters/contour.h"

namespace pviz::vis {
namespace {

constexpr double kPi = 3.14159265358979323846;

UniformGrid sphereGrid(Id cells, Vec3 center = {0.5, 0.5, 0.5}) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("dist", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, length(g.pointPosition(p) - center));
  }
  g.addField(std::move(f));
  return g;
}

// Quantized undirected edge counts over the whole surface.
std::map<std::pair<std::array<long, 3>, std::array<long, 3>>, int> edgeCounts(
    const TriangleMesh& mesh) {
  auto key = [](const Vec3& p) {
    return std::array<long, 3>{std::lround(p.x * 1e7),
                               std::lround(p.y * 1e7),
                               std::lround(p.z * 1e7)};
  };
  std::map<std::pair<std::array<long, 3>, std::array<long, 3>>, int> counts;
  for (Id t = 0; t < mesh.numTriangles(); ++t) {
    std::array<std::array<long, 3>, 3> v;
    for (int k = 0; k < 3; ++k) {
      v[static_cast<std::size_t>(k)] = key(
          mesh.points[static_cast<std::size_t>(
              mesh.connectivity[static_cast<std::size_t>(3 * t + k)])]);
    }
    for (int k = 0; k < 3; ++k) {
      auto a = v[static_cast<std::size_t>(k)];
      auto b = v[static_cast<std::size_t>((k + 1) % 3)];
      if (a == b) continue;  // degenerate sliver edge
      if (b < a) std::swap(a, b);
      counts[{a, b}] += 1;
    }
  }
  return counts;
}

TEST(Contour, SphereSurfaceAreaMatchesAnalytic) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(40);
  ContourFilter filter;
  filter.setIsovalues({0.3});
  const auto result = filter.run(ctx, g, "dist");
  EXPECT_GT(result.surface.numTriangles(), 1000);
  const double area = result.surface.totalArea();
  const double expected = 4.0 * kPi * 0.3 * 0.3;
  EXPECT_NEAR(area, expected, expected * 0.02);
}

TEST(Contour, SphereIsWatertight) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(24);
  ContourFilter filter;
  filter.setIsovalues({0.31});
  const auto result = filter.run(ctx, g, "dist");
  int odd = 0;
  for (const auto& [edge, count] : edgeCounts(result.surface)) {
    if (count % 2 != 0) ++odd;
  }
  EXPECT_EQ(odd, 0) << "surface has open (odd-use) edges";
}

TEST(Contour, PlanarFieldGivesFlatSurfaceOfKnownArea) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  UniformGrid g = UniformGrid::cube(16);
  Field f = Field::zeros("z", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).z);
  }
  g.addField(std::move(f));
  ContourFilter filter;
  filter.setIsovalues({0.53});
  const auto result = filter.run(ctx, g, "z");
  EXPECT_NEAR(result.surface.totalArea(), 1.0, 1e-9);
  for (const auto& p : result.surface.points) {
    ASSERT_NEAR(p.z, 0.53, 1e-12);
  }
}

TEST(Contour, OutOfRangeIsovalueGivesNothing) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(8);
  ContourFilter filter;
  filter.setIsovalues({99.0});
  const auto result = filter.run(ctx, g, "dist");
  EXPECT_EQ(result.surface.numTriangles(), 0);
  EXPECT_EQ(result.surface.numPoints(), 0);
}

TEST(Contour, VertexScalarsEqualIsovalue) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(12);
  ContourFilter filter;
  filter.setIsovalues({0.25});
  const auto result = filter.run(ctx, g, "dist");
  for (double s : result.surface.pointScalars) {
    ASSERT_DOUBLE_EQ(s, 0.25);
  }
}

TEST(Contour, MultipleIsovaluesConcatenate) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(16);
  ContourFilter a;
  a.setIsovalues({0.2});
  ContourFilter b;
  b.setIsovalues({0.35});
  ContourFilter both;
  both.setIsovalues({0.2, 0.35});
  const Id na = a.run(ctx, g, "dist").surface.numTriangles();
  const Id nb = b.run(ctx, g, "dist").surface.numTriangles();
  const Id nBoth = both.run(ctx, g, "dist").surface.numTriangles();
  EXPECT_EQ(nBoth, na + nb);
}

TEST(Contour, NormalsPointDownGradient) {
  // For a sphere distance field the gradient points outward; oriented
  // triangles must have normals opposing it (toward the low-value side).
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(16);
  ContourFilter filter;
  filter.setIsovalues({0.3});
  const auto result = filter.run(ctx, g, "dist");
  Id misoriented = 0;
  for (Id t = 0; t < result.surface.numTriangles(); ++t) {
    const Vec3& a = result.surface.points[static_cast<std::size_t>(
        result.surface.connectivity[static_cast<std::size_t>(3 * t)])];
    const Vec3& b = result.surface.points[static_cast<std::size_t>(
        result.surface.connectivity[static_cast<std::size_t>(3 * t + 1)])];
    const Vec3& c = result.surface.points[static_cast<std::size_t>(
        result.surface.connectivity[static_cast<std::size_t>(3 * t + 2)])];
    const Vec3 n = cross(b - a, c - a);
    const Vec3 outward = (a + b + c) / 3.0 - Vec3{0.5, 0.5, 0.5};
    if (dot(n, outward) > 1e-15) ++misoriented;
  }
  EXPECT_EQ(misoriented, 0);
}

TEST(Contour, UniformIsovaluesExcludeExtremes) {
  Field f("f", Association::Points, 1, {0.0, 10.0});
  const auto values = ContourFilter::uniformIsovalues(f, 4);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values.front(), 2.0);
  EXPECT_DOUBLE_EQ(values.back(), 8.0);
  EXPECT_THROW(ContourFilter::uniformIsovalues(f, 0), Error);
}

TEST(Contour, RequiresSetupAndScalarPointField) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  g.addField(Field::zeros("c", Association::Cells, 1, g.numCells()));
  g.addField(Field::zeros("s", Association::Points, 1, g.numPoints()));
  ContourFilter filter;
  EXPECT_THROW(filter.run(ctx, g, "s"), Error);  // no isovalues set
  filter.setIsovalues({0.5});
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);  // vector field
  EXPECT_THROW(filter.run(ctx, g, "c"), Error);  // cell field
}

TEST(Contour, ProfileReflectsWork) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = sphereGrid(12);
  ContourFilter filter;
  filter.setIsovalues({0.3, 0.4});
  const auto result = filter.run(ctx, g, "dist");
  EXPECT_EQ(result.profile.kernel, "contour");
  EXPECT_EQ(result.profile.elements, g.numCells());
  ASSERT_EQ(result.profile.phases.size(), 3u);
  EXPECT_GT(result.profile.totalInstructions(), 0.0);
  EXPECT_GT(result.profile.totalBytesStreamed(), 0.0);
}

// Property sweep: area of a sphere contour tracks r^2 across isovalues,
// and every surface is watertight.
class ContourIsovalueSweep : public ::testing::TestWithParam<double> {};

TEST_P(ContourIsovalueSweep, AreaTracksRadiusAndSurfaceCloses) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const double r = GetParam();
  const UniformGrid g = sphereGrid(32);
  ContourFilter filter;
  filter.setIsovalues({r});
  const auto result = filter.run(ctx, g, "dist");
  const double expected = 4.0 * kPi * r * r;
  EXPECT_NEAR(result.surface.totalArea(), expected, expected * 0.03);
  int odd = 0;
  for (const auto& [edge, count] : edgeCounts(result.surface)) {
    if (count % 2 != 0) ++odd;
  }
  EXPECT_EQ(odd, 0);
}

INSTANTIATE_TEST_SUITE_P(Radii, ContourIsovalueSweep,
                         ::testing::Values(0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                                           0.45));

// ---- the row-block path against the cell-by-cell serial reference ----

/// Compare the filter with the reference on every config; returns the
/// reference.
contourref::Reference expectMatchesReferenceOnEveryConfig(
    const UniformGrid& g, const std::vector<double>& isovalues) {
  contourref::Reference reference = contourref::contour(g, "w", isovalues);
  ContourFilter filter;
  filter.setIsovalues(isovalues);
  for (unsigned workers : reftest::poolWidths()) {
    SCOPED_TRACE(reftest::poolLabel(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    contourref::expectMatches(filter.run(ctx, g, "w"), reference);
  }
  return reference;
}

TEST(ContourReference, RowsLongerThanTheGrainAreOneRowBlocks) {
  // 1100 cells per row: rowGrain is 1, so every row is its own block.
  const Id3 cells{1100, 4, 3};
  ASSERT_GE(cells.i, util::kDefaultGrain);
  const UniformGrid g = contourref::wavyGrid(cells);
  EXPECT_GT(expectMatchesReferenceOnEveryConfig(g, {-0.4, 0.0, 0.7})
                .crossedCells,
            0);
}

TEST(ContourReference, RowCountNotAMultipleOfTheRowGrain) {
  // 20-cell rows give rowGrain 51; 13 × 11 = 143 rows leave a last
  // block of 41 rows.
  const Id3 cells{20, 13, 11};
  const Id rowGrain = util::kDefaultGrain / cells.i;
  ASSERT_NE((cells.j * cells.k) % rowGrain, 0);
  const UniformGrid g = contourref::wavyGrid(cells);
  EXPECT_GT(expectMatchesReferenceOnEveryConfig(g, {-0.9, -0.2, 0.3, 1.1})
                .crossedCells,
            0);
}

TEST(ContourReference, OneByOneByNColumn) {
  // Rows of one cell: the whole column is a single, partial block.
  const UniformGrid g = contourref::wavyGrid({1, 1, 200});
  EXPECT_GT(
      expectMatchesReferenceOnEveryConfig(g, {-0.5, 0.25}).crossedCells, 0);
}

TEST(ContourReference, FieldWithZeroCrossings) {
  // Every isovalue lies outside [-1.5, 1.5]: no cell emits anything.
  const UniformGrid g = contourref::wavyGrid({30, 20, 10});
  EXPECT_EQ(
      expectMatchesReferenceOnEveryConfig(g, {-2.0, 2.0}).crossedCells, 0);
}

}  // namespace
}  // namespace pviz::vis
