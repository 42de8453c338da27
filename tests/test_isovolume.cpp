// Isovolume filter tests.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "clip_reference.h"
#include "util/exec_context.h"
#include "viz/filters/isovolume.h"

namespace pviz::vis {
namespace {

UniformGrid xGrid(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("x", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).x);
  }
  g.addField(std::move(f));
  return g;
}

TEST(Isovolume, BandVolumeOnLinearFieldIsExact) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(10);
  IsovolumeFilter filter;
  filter.setRange(0.23, 0.61);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_NEAR(result.totalVolume(g), 0.61 - 0.23, 1e-9);
  EXPECT_GT(result.cutPieces.numTets(), 0);    // both faces cut cells
  EXPECT_GT(result.wholeCells.numCells(), 0);  // interior slab kept whole
}

TEST(Isovolume, FullRangeKeepsUnitVolume) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(6);
  IsovolumeFilter filter;
  filter.setRange(-1.0, 2.0);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_NEAR(result.totalVolume(g), 1.0, 1e-9);
  EXPECT_EQ(result.wholeCells.numCells(), g.numCells());
  EXPECT_EQ(result.cutPieces.numTets(), 0);
}

TEST(Isovolume, EmptyBandKeepsNothing) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(6);
  IsovolumeFilter filter;
  filter.setRange(5.0, 6.0);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_NEAR(result.totalVolume(g), 0.0, 1e-12);
  EXPECT_EQ(result.wholeCells.numCells(), 0);
}

TEST(Isovolume, AdjacentBandsTileTheRange) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(8);
  IsovolumeFilter a;
  a.setRange(0.1, 0.5);
  IsovolumeFilter b;
  b.setRange(0.5, 0.9);
  IsovolumeFilter whole;
  whole.setRange(0.1, 0.9);
  const double va = a.run(ctx, g, "x").totalVolume(g);
  const double vb = b.run(ctx, g, "x").totalVolume(g);
  const double vw = whole.run(ctx, g, "x").totalVolume(g);
  EXPECT_NEAR(va + vb, vw, 1e-9);
}

TEST(Isovolume, CarriedScalarsStayInsideBand) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(9);
  IsovolumeFilter filter;
  filter.setRange(0.3, 0.7);
  const auto result = filter.run(ctx, g, "x");
  for (double s : result.cutPieces.pointScalars) {
    ASSERT_GE(s, 0.3 - 1e-9);
    ASSERT_LE(s, 0.7 + 1e-9);
  }
  // And geometrically: x coordinates must lie inside the band since the
  // field is x itself.
  for (const auto& p : result.cutPieces.points) {
    ASSERT_GE(p.x, 0.3 - 1e-9);
    ASSERT_LE(p.x, 0.7 + 1e-9);
  }
}

TEST(Isovolume, WholeCellsLieStrictlyInsideBand) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(8);
  IsovolumeFilter filter;
  filter.setRange(0.25, 0.75);
  const auto result = filter.run(ctx, g, "x");
  const Field& f = g.field("x");
  for (Id c : result.wholeCells.cellIds) {
    Id pts[8];
    g.cellPointIds(g.cellIjk(c), pts);
    for (int k = 0; k < 8; ++k) {
      ASSERT_GE(f.value(pts[k]), 0.25 - 1e-12);
      ASSERT_LE(f.value(pts[k]), 0.75 + 1e-12);
    }
  }
}

TEST(Isovolume, RejectsBadInput) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  IsovolumeFilter filter;
  EXPECT_THROW(filter.setRange(1.0, 0.0), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  filter.setRange(0.0, 1.0);
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);
}

TEST(Isovolume, ProfileHasFourPhases) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = xGrid(6);
  IsovolumeFilter filter;
  filter.setRange(0.2, 0.8);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_EQ(result.profile.kernel, "isovolume");
  EXPECT_EQ(result.profile.phases.size(), 4u);
  EXPECT_EQ(result.profile.elements, g.numCells());
}

TEST(Isovolume, CutPiecesMatchSerialReferenceOnEveryConfig) {
  const UniformGrid g = clipref::wavyGrid(32);
  const std::vector<double>& w = g.field("w").data();
  const double lo = -0.3;
  const double hi = 0.4;
  std::vector<double> keepAboveLo(w.size());
  std::vector<double> keepBelowHi(w.size());
  for (std::size_t p = 0; p < w.size(); ++p) {
    keepAboveLo[p] = w[p] - lo;
    keepBelowHi[p] = hi - w[p];
  }

  // Stage 1 by hand: cut cells clipped against lo, whole cells listed.
  TetMesh lowPieces;
  std::vector<Id> wholeAboveLo;
  for (Id cell = 0; cell < g.numCells(); ++cell) {
    const int kept = clipref::keptCorners(g, cell, keepAboveLo);
    if (kept == 8) {
      wholeAboveLo.push_back(cell);
    } else if (kept > 0) {
      clipref::appendClippedCell(g, cell, keepAboveLo, w, lowPieces);
    }
  }
  // Stage 2: the stage-1 tets re-clipped against hi, then the whole
  // cells that straddle hi.
  TetMesh reference;
  for (Id t = 0; t < lowPieces.numTets(); ++t) {
    Vec3 pos[4];
    double clip[4];
    double carry[4];
    for (int i = 0; i < 4; ++i) {
      const auto p = static_cast<std::size_t>(
          lowPieces.connectivity[static_cast<std::size_t>(4 * t + i)]);
      pos[i] = lowPieces.points[p];
      clip[i] = hi - lowPieces.pointScalars[p];
      carry[i] = lowPieces.pointScalars[p];
    }
    clipTetrahedron(pos, clip, carry, reference);
  }
  const Id lowClipTets = reference.numTets();
  for (const Id cell : wholeAboveLo) {
    const int kept = clipref::keptCorners(g, cell, keepBelowHi);
    if (kept > 0 && kept < 8) {
      clipref::appendClippedCell(g, cell, keepBelowHi, w, reference);
    }
  }
  ASSERT_GT(lowClipTets, 0);
  ASSERT_GT(reference.numTets(), lowClipTets);

  IsovolumeFilter filter;
  filter.setRange(lo, hi);
  for (unsigned workers : reftest::poolWidths()) {
    SCOPED_TRACE(reftest::poolLabel(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    const auto result = filter.run(ctx, g, "w");
    clipref::expectIdentical(result.cutPieces, reference);
    EXPECT_EQ(result.lowClipTets, lowClipTets);
  }
}

TEST(Isovolume, TetSoupConnectivityIsIdentity) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = clipref::wavyGrid(12);
  IsovolumeFilter filter;
  filter.setRange(-0.5, 0.5);
  const auto result = filter.run(ctx, g, "w");
  ASSERT_GT(result.lowClipTets, 0);
  ASSERT_GT(result.cutPieces.numTets(), result.lowClipTets);
  clipref::expectIdentityConnectivity(result.cutPieces);
}

// Geometric invariant: the isovolume of a band contains that of every
// band nested inside it, so the kept volume (whole cells plus tets)
// never shrinks as the band widens, and a band covering the field's
// whole range keeps the whole domain.
TEST(Isovolume, VolumeIsMonotoneInTheBand) {
  const UniformGrid g = clipref::wavyGrid(12);
  // Each band contains the one before; "w" lies in [-1.5, 1.5].
  const std::vector<std::pair<double, double>> bands = {
      {0.1, 0.2},   {0.0, 0.2},   {0.0, 0.45}, {-0.3, 0.45},
      {-0.3, 0.9},  {-0.8, 0.9},  {-0.8, 1.3}, {-1.6, 1.6}};
  for (unsigned workers : reftest::poolWidths()) {
    SCOPED_TRACE(reftest::poolLabel(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    double previous = 0.0;
    for (const auto& [lo, hi] : bands) {
      SCOPED_TRACE("band [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
      IsovolumeFilter filter;
      filter.setRange(lo, hi);
      const double volume = filter.run(ctx, g, "w").totalVolume(g);
      // Whole cells and their tet pieces sum in different orders, so
      // equal regions may differ in the last bits.
      EXPECT_GE(volume, previous - 1e-12);
      previous = volume;
    }
    EXPECT_NEAR(previous, 1.0, 1e-9);
  }
}

// Property: band volume equals band width for any sub-interval of the
// unit range on a linear field.
class IsovolumeBand
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(IsovolumeBand, VolumeEqualsWidth) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const auto [lo, hi] = GetParam();
  const UniformGrid g = xGrid(9);
  IsovolumeFilter filter;
  filter.setRange(lo, hi);
  EXPECT_NEAR(filter.run(ctx, g, "x").totalVolume(g), hi - lo, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, IsovolumeBand,
    ::testing::Values(std::pair{0.0, 0.3}, std::pair{0.111, 0.888},
                      std::pair{0.45, 0.55}, std::pair{0.5, 1.0},
                      std::pair{0.333, 0.667}, std::pair{0.05, 0.95}));

}  // namespace
}  // namespace pviz::vis
