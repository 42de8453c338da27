// External-face extraction tests.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "reference_common.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "viz/rendering/external_faces.h"

namespace pviz::vis {
namespace {

UniformGrid gridWithEnergy(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("energy", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).x);
  }
  g.addField(std::move(f));
  return g;
}

TEST(ExternalFaces, CountMatchesBoundaryQuadFormula) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  for (Id n : {2, 3, 5, 8}) {
    const UniformGrid g = gridWithEnergy(n);
    const auto result = extractExternalFaces(ctx, g, "energy");
    EXPECT_EQ(result.facesFound, 6 * n * n) << "n=" << n;
    EXPECT_EQ(result.mesh.numTriangles(), 12 * n * n);
    EXPECT_EQ(result.cellsScanned, n * n * n);
  }
}

TEST(ExternalFaces, EightTimesCellsGivesFourTimesFaces) {
  // The paper's observation: 8X cells -> 4X external faces.
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const auto small = extractExternalFaces(ctx, gridWithEnergy(8), "energy");
  const auto large = extractExternalFaces(ctx, gridWithEnergy(16), "energy");
  EXPECT_EQ(large.facesFound, 4 * small.facesFound);
}

TEST(ExternalFaces, TotalAreaEqualsCubeSurface) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = gridWithEnergy(6);
  const auto result = extractExternalFaces(ctx, g, "energy");
  EXPECT_NEAR(result.mesh.totalArea(), 6.0, 1e-9);
}

TEST(ExternalFaces, AllVerticesOnTheBoundary) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = gridWithEnergy(5);
  const auto result = extractExternalFaces(ctx, g, "energy");
  for (const auto& p : result.mesh.points) {
    const bool boundary = p.x < 1e-12 || p.x > 1 - 1e-12 || p.y < 1e-12 ||
                          p.y > 1 - 1e-12 || p.z < 1e-12 || p.z > 1 - 1e-12;
    ASSERT_TRUE(boundary);
  }
}

TEST(ExternalFaces, ScalarsCarriedFromField) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = gridWithEnergy(4);
  const auto result = extractExternalFaces(ctx, g, "energy");
  ASSERT_EQ(result.mesh.pointScalars.size(), result.mesh.points.size());
  for (std::size_t i = 0; i < result.mesh.points.size(); ++i) {
    ASSERT_NEAR(result.mesh.pointScalars[i], result.mesh.points[i].x, 1e-12);
  }
}

TEST(ExternalFaces, NormalsPointOutward) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = gridWithEnergy(3);
  const auto result = extractExternalFaces(ctx, g, "energy");
  const Vec3 center{0.5, 0.5, 0.5};
  for (Id t = 0; t < result.mesh.numTriangles(); ++t) {
    const Vec3& a = result.mesh.points[static_cast<std::size_t>(
        result.mesh.connectivity[static_cast<std::size_t>(3 * t)])];
    const Vec3& b = result.mesh.points[static_cast<std::size_t>(
        result.mesh.connectivity[static_cast<std::size_t>(3 * t + 1)])];
    const Vec3& c = result.mesh.points[static_cast<std::size_t>(
        result.mesh.connectivity[static_cast<std::size_t>(3 * t + 2)])];
    const Vec3 n = cross(b - a, c - a);
    const Vec3 outward = (a + b + c) / 3.0 - center;
    ASSERT_GT(dot(n, outward), 0.0) << "triangle " << t;
  }
}

// ---- the row sweep against a cell-by-cell serial reference ----

/// Cell `c`'s external-face mask: bit f set when face f (-i, +i, -j, +j,
/// -k, +k) lies on the grid boundary.
unsigned referenceFaceMask(Id3 c, Id3 cells) {
  unsigned mask = 0;
  if (c.i == 0) mask |= 1u << 0;
  if (c.i == cells.i - 1) mask |= 1u << 1;
  if (c.j == 0) mask |= 1u << 2;
  if (c.j == cells.j - 1) mask |= 1u << 3;
  if (c.k == 0) mask |= 1u << 4;
  if (c.k == cells.k - 1) mask |= 1u << 5;
  return mask;
}

/// Every external face in ascending cell order, then face order: four
/// corners wound outward and two triangles (0,1,2) and (0,2,3).
ExternalFacesResult referenceExternalFaces(const UniformGrid& grid,
                                           const std::string& fieldName) {
  static constexpr int kFaceCorners[6][4] = {{0, 4, 7, 3}, {1, 2, 6, 5},
                                             {0, 1, 5, 4}, {3, 7, 6, 2},
                                             {0, 3, 2, 1}, {4, 5, 6, 7}};
  static constexpr Id kCornerIjk[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                          {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                          {1, 1, 1}, {0, 1, 1}};
  const std::vector<double>& values = grid.field(fieldName).data();
  ExternalFacesResult ref;
  ref.cellsScanned = grid.numCells();
  TriangleMesh& mesh = ref.mesh;
  for (Id cell = 0; cell < grid.numCells(); ++cell) {
    const Id3 c = grid.cellIjk(cell);
    const unsigned mask = referenceFaceMask(c, grid.cellDims());
    ref.facesFound += std::popcount(mask);
    for (int f = 0; f < 6; ++f) {
      if (((mask >> f) & 1u) == 0) continue;
      const Id v0 = static_cast<Id>(mesh.points.size());
      for (const int corner : kFaceCorners[f]) {
        const Id3 p{c.i + kCornerIjk[corner][0], c.j + kCornerIjk[corner][1],
                    c.k + kCornerIjk[corner][2]};
        mesh.points.push_back(grid.pointPosition(p));
        mesh.pointScalars.push_back(
            values[static_cast<std::size_t>(grid.pointId(p))]);
      }
      for (const Id v : {v0, v0 + 1, v0 + 2, v0, v0 + 2, v0 + 3}) {
        mesh.connectivity.push_back(v);
      }
    }
  }
  return ref;
}

/// Compare the filter with the reference bit for bit on every exec
/// config.
void expectMatchesReferenceOnEveryConfig(Id3 cells) {
  const UniformGrid g = reftest::wavyGrid(cells);
  const ExternalFacesResult want = referenceExternalFaces(g, "w");
  for (unsigned workers : reftest::poolWidths()) {
    SCOPED_TRACE(reftest::poolLabel(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    const ExternalFacesResult got = extractExternalFaces(ctx, g, "w");
    EXPECT_EQ(got.cellsScanned, want.cellsScanned);
    EXPECT_EQ(got.facesFound, want.facesFound);
    EXPECT_TRUE(reftest::sameBits(got.mesh.points, want.mesh.points));
    EXPECT_TRUE(
        reftest::sameBits(got.mesh.pointScalars, want.mesh.pointScalars));
    EXPECT_EQ(got.mesh.connectivity, want.mesh.connectivity);
  }
}

TEST(ExternalFacesReference, RowsShorterThanTheGrain) {
  expectMatchesReferenceOnEveryConfig({23, 13, 11});
}

TEST(ExternalFacesReference, RowsLongerThanTheGrain) {
  const Id3 cells{1100, 4, 3};
  ASSERT_GE(cells.i, util::kDefaultGrain);
  expectMatchesReferenceOnEveryConfig(cells);
}

TEST(ExternalFacesReference, OneCellWideRows) {
  // Each cell is both the -i and the +i end of its row.
  expectMatchesReferenceOnEveryConfig({1, 17, 9});
}

TEST(ExternalFacesReference, OneByOneByNColumn) {
  // Every cell is external on at least four faces.
  expectMatchesReferenceOnEveryConfig({1, 1, 200});
}

TEST(ExternalFaces, RequiresPointField) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("c", Association::Cells, 1, g.numCells()));
  EXPECT_THROW(extractExternalFaces(ctx, g, "c"), Error);
}

}  // namespace
}  // namespace pviz::vis
