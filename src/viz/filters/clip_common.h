// Shared cell-clipping machinery for spherical clip and isovolume.
//
// The paper's description: cells entirely on the kept side pass to the
// output unchanged; cells entirely on the discarded side are dropped;
// cells straddling the surface are subdivided, keeping the part on the
// kept side.  We implement the subdivision by decomposing each straddling
// hexahedron into six tetrahedra around its main diagonal (a
// face-consistent decomposition on a uniform grid, so neighbor cells
// agree on face diagonals) and clipping each tetrahedron against the
// linear interpolant of the clip scalar.  The kept region of a clipped
// tetrahedron is a tet or a prism; prisms are split into three tets.
//
// Convention: points with clip scalar >= 0 are KEPT.
#pragma once

#include <span>
#include <vector>

#include "viz/dataset/explicit_mesh.h"
#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

/// Output of clipping a uniform grid: whole kept cells + tet pieces of
/// cut cells, with a carried per-point scalar on the tet piece mesh.
struct ClipResult {
  HexSubset wholeCells;  ///< cells entirely on the kept side
  TetMesh cutPieces;     ///< tetrahedra from subdivided straddling cells
  std::int64_t cellsIn = 0;    ///< fully kept
  std::int64_t cellsOut = 0;   ///< fully discarded
  std::int64_t cellsCut = 0;   ///< subdivided
};

/// Clip `grid` by the per-point scalar `clipScalar` (size numPoints,
/// keep >= 0).  `carried` (size numPoints) is interpolated onto clip
/// vertices and stored as the output scalar (typically the visualized
/// field).  Spans let callers pass arena-backed scratch arrays.
ClipResult clipUniformGrid(util::ExecutionContext& ctx,
                           const UniformGrid& grid,
                           std::span<const double> clipScalar,
                           std::span<const double> carried);

/// Clip an existing tet mesh by a per-point clip scalar (keep >= 0).
/// Carried scalars on the input mesh are interpolated onto cut vertices.
TetMesh clipTetMesh(util::ExecutionContext& ctx, const TetMesh& mesh,
                    std::span<const double> clipScalar);

/// Tets of an existing mesh to re-clip (keep >= 0 per mesh point).
struct TetsToClip {
  const TetMesh* mesh = nullptr;  ///< nullptr: no tets
  std::span<const double> clipScalar;
};

/// Cut cells of a uniform grid to subdivide into six tets each and clip.
struct CellsToClip {
  const UniformGrid* grid = nullptr;  ///< nullptr: no cells
  std::span<const Id> cells;          ///< flat cell ids, in output order
  std::span<const double> clipScalar;  ///< per grid point, keep >= 0
  std::span<const double> carried;     ///< per grid point
};

/// Clip `tets` and then `cells` into one tet soup, each in input order,
/// replacing the contents of `out`.  Count → scan → write: every input
/// counts its output tets, one exclusive scan gives each its slot, and
/// the arrays are allocated once at their final size.
/// `out.connectivity[k] == k`.  Returns the number of output tets that
/// came from `tets`.
Id clipIntoTetSoup(util::ExecutionContext& ctx, const TetsToClip& tets,
                   const CellsToClip& cells, TetMesh& out);

/// Clip a single tetrahedron; appends kept tets to `out`.
/// `pos`/`clip`/`carry` give the four vertices.  Exposed for testing.
void clipTetrahedron(const Vec3 pos[4], const double clip[4],
                     const double carry[4], TetMesh& out);

/// Number of tets clipTetrahedron emits when bit i of `keepMask` (0..15)
/// says corner i is kept: {0, 1, 3, 3, 1} by kept-corner count.
int clipTetCount(int keepMask);

/// The 6 tets (4 VTK-hex corner indices each) a cut cell is decomposed
/// into, around the 0-6 main diagonal.  Exposed for testing.
const int (*hexTetDecomposition())[4];

}  // namespace pviz::vis
