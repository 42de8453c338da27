// Serial reference for the contour filter: marching cubes one cell at a
// time, in ascending cell order for each isovalue in turn, appending each
// crossed cell's triangles as it goes — no count array, no scan, no row
// blocks.  The filter's classify → block scan → generate path must
// reproduce it bit for bit on every pool width.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference_common.h"
#include "viz/filters/contour.h"
#include "viz/filters/mc_tables.h"

namespace pviz::vis::contourref {

using reftest::wavyGrid;

struct Reference {
  TriangleMesh surface;
  std::vector<Id> passTriangles;
  std::int64_t crossedCells = 0;  ///< cells emitting triangles, all passes
};

/// Contour point scalar `fieldName` of `grid` at each of `isovalues`.
inline Reference contour(const UniformGrid& grid, const std::string& fieldName,
                         const std::vector<double>& isovalues) {
  const McTables& tables = McTables::instance();
  const std::vector<double>& values = grid.field(fieldName).data();
  Reference ref;
  for (const double iso : isovalues) {
    Id emitted = 0;
    for (Id cell = 0; cell < grid.numCells(); ++cell) {
      Id ids[8];
      grid.cellPointIds(grid.cellIjk(cell), ids);
      double v[8];
      Vec3 pos[8];
      int caseIndex = 0;
      for (int c = 0; c < 8; ++c) {
        v[c] = values[static_cast<std::size_t>(ids[c])];
        pos[c] = grid.pointPosition(ids[c]);
        if (v[c] >= iso) caseIndex |= 1 << c;
      }
      const int count =
          tables.triangleCount[static_cast<std::size_t>(caseIndex)];
      if (count == 0) continue;
      ++ref.crossedCells;
      emitted += count;
      // Orientation: each normal points down the corner-difference
      // gradient, toward the low-valued side.
      const Vec3 gradient{(v[1] - v[0]) + (v[2] - v[3]) + (v[5] - v[4]) +
                              (v[6] - v[7]),
                          (v[3] - v[0]) + (v[2] - v[1]) + (v[7] - v[4]) +
                              (v[6] - v[5]),
                          (v[4] - v[0]) + (v[5] - v[1]) + (v[6] - v[2]) +
                              (v[7] - v[3])};
      const auto& tri = tables.triangles[static_cast<std::size_t>(caseIndex)];
      for (int t = 0; t < count; ++t) {
        Vec3 p[3];
        for (int k = 0; k < 3; ++k) {
          const int edge = tri[static_cast<std::size_t>(3 * t + k)];
          const int a = McTables::kEdgeCorners[edge][0];
          const int b = McTables::kEdgeCorners[edge][1];
          const double denom = v[b] - v[a];
          p[k] = lerp(pos[a], pos[b],
                      denom != 0.0 ? (iso - v[a]) / denom : 0.5);
        }
        if (dot(cross(p[1] - p[0], p[2] - p[0]), gradient) > 0.0) {
          std::swap(p[1], p[2]);
        }
        for (const Vec3& point : p) {
          ref.surface.connectivity.push_back(
              static_cast<Id>(ref.surface.points.size()));
          ref.surface.points.push_back(point);
          ref.surface.pointScalars.push_back(iso);
        }
      }
    }
    ref.passTriangles.push_back(emitted);
  }
  return ref;
}

/// The crossed-cell count the filter's profile was built from: its
/// generate phase charges 8 reused 8-byte corner loads per crossed cell.
inline double profileCrossedCells(const KernelProfile& profile) {
  for (const WorkProfile& phase : profile.phases) {
    if (phase.name == "mc-generate") return phase.bytesReused / (8.0 * 8.0);
  }
  ADD_FAILURE() << "no mc-generate phase";
  return -1.0;
}

/// Bitwise equality of a filter result with the reference, without
/// printing megabytes on failure.
inline void expectMatches(const ContourFilter::Result& got,
                          const Reference& want) {
  EXPECT_EQ(got.surface.numTriangles(), want.surface.numTriangles());
  EXPECT_TRUE(got.surface.points == want.surface.points);
  EXPECT_TRUE(got.surface.pointScalars == want.surface.pointScalars);
  EXPECT_TRUE(got.surface.connectivity == want.surface.connectivity);
  EXPECT_EQ(got.passTriangles, want.passTriangles);
  EXPECT_EQ(profileCrossedCells(got.profile),
            static_cast<double>(want.crossedCells));
}

}  // namespace pviz::vis::contourref
