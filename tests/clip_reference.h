// Serial reference for the tet-emitting filters (clip, isovolume): each
// cut cell is decomposed and clipped through the public clipTetrahedron
// hook, one cell at a time, and appended in ascending order.  The
// filters' count → scan → write paths must reproduce it bit for bit on
// every pool width.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "reference_common.h"
#include "viz/filters/clip_common.h"

namespace pviz::vis::clipref {

/// A unit cube of `cells`³ cells carrying the oscillating field "w".
inline UniformGrid wavyGrid(Id cells) {
  return reftest::wavyGrid({cells, cells, cells});
}

/// Corners of `cell` with clip >= 0: 0 is dropped, 8 kept whole, else cut.
inline int keptCorners(const UniformGrid& grid, Id cell,
                       std::span<const double> clip) {
  Id pts[8];
  grid.cellPointIds(grid.cellIjk(cell), pts);
  int kept = 0;
  for (const Id p : pts) kept += clip[static_cast<std::size_t>(p)] >= 0.0;
  return kept;
}

/// Append the clipped six-tet decomposition of `cell` to `out`.
inline void appendClippedCell(const UniformGrid& grid, Id cell,
                              std::span<const double> clip,
                              std::span<const double> carried, TetMesh& out) {
  Id pts[8];
  grid.cellPointIds(grid.cellIjk(cell), pts);
  const auto tets = hexTetDecomposition();
  for (int t = 0; t < 6; ++t) {
    Vec3 pos[4];
    double c[4];
    double a[4];
    for (int i = 0; i < 4; ++i) {
      const Id p = pts[tets[t][i]];
      pos[i] = grid.pointPosition(p);
      c[i] = clip[static_cast<std::size_t>(p)];
      a[i] = carried[static_cast<std::size_t>(p)];
    }
    clipTetrahedron(pos, c, a, out);
  }
}

/// Bitwise equality without printing megabytes on failure.
inline void expectIdentical(const TetMesh& got, const TetMesh& want) {
  EXPECT_EQ(got.numTets(), want.numTets());
  EXPECT_TRUE(got.points == want.points);
  EXPECT_TRUE(got.pointScalars == want.pointScalars);
  EXPECT_TRUE(got.connectivity == want.connectivity);
}

/// A tet soup's connectivity is 0, 1, 2, …: every tet owns its points.
inline void expectIdentityConnectivity(const TetMesh& mesh) {
  ASSERT_EQ(mesh.connectivity.size(), mesh.points.size());
  for (std::size_t k = 0; k < mesh.connectivity.size(); ++k) {
    ASSERT_EQ(mesh.connectivity[k], static_cast<Id>(k)) << "at " << k;
  }
}

}  // namespace pviz::vis::clipref
