#include "viz/filters/clip_common.h"

#include <bit>
#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

namespace {

// Six tetrahedra around the 0-6 main diagonal (VTK hex corner indices).
// Every tet lists the shared diagonal endpoints first and winds so the
// signed volume is positive for an axis-aligned cell.
constexpr int kHexTets[6][4] = {{0, 1, 2, 6}, {0, 2, 3, 6}, {0, 3, 7, 6},
                                {0, 7, 4, 6}, {0, 4, 5, 6}, {0, 5, 1, 6}};

struct ClipVertex {
  Vec3 position;
  double carry;
};

ClipVertex edgePoint(const Vec3& pa, const Vec3& pb, double sa, double sb,
                     double ca, double cb) {
  const double denom = sa - sb;
  const double t = denom != 0.0 ? sa / denom : 0.5;
  return {lerp(pa, pb, t), lerp(ca, cb, t)};
}

// The tet clip cases: calls `emit(a, b, c, d)` once per kept tet, in
// output order.  The clipTetrahedron append hook and the scanned-slot
// writer both instantiate it, so there is one implementation of them.
template <typename Emit>
void clipTetCases(const Vec3 pos[4], const double clip[4],
                  const double carry[4], Emit&& emit) {
  int keepMask = 0;
  for (int i = 0; i < 4; ++i) keepMask |= (clip[i] >= 0.0) << i;
  if (keepMask == 0) return;

  auto vert = [&](int i) -> ClipVertex { return {pos[i], carry[i]}; };
  auto cut = [&](int a, int b) -> ClipVertex {
    return edgePoint(pos[a], pos[b], clip[a], clip[b], carry[a], carry[b]);
  };
  // Split the prism with triangle faces (t0,t1,t2) / (b0,b1,b2) into
  // three tets.  Valid for the mildly warped prisms tet clipping produces.
  auto prism = [&](const ClipVertex& t0, const ClipVertex& t1,
                   const ClipVertex& t2, const ClipVertex& b0,
                   const ClipVertex& b1, const ClipVertex& b2) {
    emit(t0, t1, t2, b0);
    emit(t1, t2, b0, b2);
    emit(t1, b0, b1, b2);
  };

  if (keepMask == 0xF) {
    emit(vert(0), vert(1), vert(2), vert(3));
    return;
  }

  int kept[4];
  int lost[4];
  int nKept = 0;
  int nLost = 0;
  for (int i = 0; i < 4; ++i) {
    if ((keepMask >> i) & 1) {
      kept[nKept++] = i;
    } else {
      lost[nLost++] = i;
    }
  }

  if (nKept == 1) {
    // Small tet: kept corner + three cut points toward the lost corners.
    const int a = kept[0];
    emit(vert(a), cut(a, lost[0]), cut(a, lost[1]), cut(a, lost[2]));
  } else if (nKept == 2) {
    // Prism: the two kept corners and four cut points.
    const int a = kept[0];
    const int b = kept[1];
    const int c = lost[0];
    const int d = lost[1];
    prism(vert(a), cut(a, c), cut(a, d), vert(b), cut(b, c), cut(b, d));
  } else {  // nKept == 3: tet minus a corner tet = prism.
    const int d = lost[0];
    const int a = kept[0];
    const int b = kept[1];
    const int c = kept[2];
    prism(vert(a), vert(b), vert(c), cut(a, d), cut(b, d), cut(c, d));
  }
}

// Output tets of input tet `t`, read off its four corner signs.
int meshTetTetCount(const TetsToClip& tets, Id t) {
  int keepMask = 0;
  for (int i = 0; i < 4; ++i) {
    const Id p = tets.mesh->connectivity[static_cast<std::size_t>(4 * t + i)];
    keepMask |= (tets.clipScalar[static_cast<std::size_t>(p)] >= 0.0) << i;
  }
  return clipTetCount(keepMask);
}

// Output tets of a cut cell: the sum over its six tets.
int cutCellTetCount(const CellsToClip& cells, Id cell) {
  Id pts[8];
  cells.grid->cellPointIds(cells.grid->cellIjk(cell), pts);
  int count = 0;
  for (const auto& tet : kHexTets) {
    int keepMask = 0;
    for (int i = 0; i < 4; ++i) {
      const auto p = static_cast<std::size_t>(pts[tet[i]]);
      keepMask |= (cells.clipScalar[p] >= 0.0) << i;
    }
    count += clipTetCount(keepMask);
  }
  return count;
}

// Re-clip input tet `t` of a mesh.
template <typename Emit>
void clipMeshTet(const TetsToClip& tets, Id t, Emit&& emit) {
  const TetMesh& mesh = *tets.mesh;
  Vec3 pos[4];
  double clip[4];
  double carry[4];
  for (int i = 0; i < 4; ++i) {
    const auto p = static_cast<std::size_t>(
        mesh.connectivity[static_cast<std::size_t>(4 * t + i)]);
    pos[i] = mesh.points[p];
    clip[i] = tets.clipScalar[p];
    carry[i] = mesh.pointScalars.empty() ? 0.0 : mesh.pointScalars[p];
  }
  clipTetCases(pos, clip, carry, emit);
}

// Subdivide cut cell `cell` into its six tets and clip each.
template <typename Emit>
void clipCutCell(const CellsToClip& cells, Id cell, Emit&& emit) {
  const UniformGrid& grid = *cells.grid;
  Id pts[8];
  const Id3 c = grid.cellIjk(cell);
  grid.cellPointIds(c, pts);
  Vec3 cornerPos[8];
  double clip[8];
  double carry[8];
  static constexpr Id kOffsets[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                        {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                        {1, 1, 1}, {0, 1, 1}};
  for (int i = 0; i < 8; ++i) {
    cornerPos[i] = grid.pointPosition(Id3{
        c.i + kOffsets[i][0], c.j + kOffsets[i][1], c.k + kOffsets[i][2]});
    clip[i] = cells.clipScalar[static_cast<std::size_t>(pts[i])];
    carry[i] = cells.carried[static_cast<std::size_t>(pts[i])];
  }
  for (const auto& tet : kHexTets) {
    const Vec3 tp[4] = {cornerPos[tet[0]], cornerPos[tet[1]],
                        cornerPos[tet[2]], cornerPos[tet[3]]};
    const double tc[4] = {clip[tet[0]], clip[tet[1]], clip[tet[2]],
                          clip[tet[3]]};
    const double ta[4] = {carry[tet[0]], carry[tet[1]], carry[tet[2]],
                          carry[tet[3]]};
    clipTetCases(tp, tc, ta, emit);
  }
}

}  // namespace

const int (*hexTetDecomposition())[4] { return kHexTets; }

int clipTetCount(int keepMask) {
  // By kept-corner count: none, the corner tet, a prism split into three
  // tets (two or three kept corners), the whole tet.
  constexpr int kTetsByKeptCount[5] = {0, 1, 3, 3, 1};
  return kTetsByKeptCount[std::popcount(static_cast<unsigned>(keepMask))];
}

void clipTetrahedron(const Vec3 pos[4], const double clip[4],
                     const double carry[4], TetMesh& out) {
  clipTetCases(pos, clip, carry, [&out](const auto&... tet) {
    for (const ClipVertex* v : {&tet...}) {
      out.connectivity.push_back(out.numPoints());
      out.points.push_back(v->position);
      out.pointScalars.push_back(v->carry);
    }
  });
}

Id clipIntoTetSoup(util::ExecutionContext& ctx, const TetsToClip& tets,
                   const CellsToClip& cells, TetMesh& out) {
  const Id numTets = tets.mesh != nullptr ? tets.mesh->numTets() : 0;
  const Id numInputs = numTets + static_cast<Id>(cells.cells.size());
  auto cellAt = [&](Id n) {
    return cells.cells[static_cast<std::size_t>(n - numTets)];
  };

  // Count: output tets per input, then one scan into tet offsets.
  util::ScratchVector<std::int64_t> firstTet(
      ctx.arena(), static_cast<std::size_t>(numInputs) + 1);
  util::parallelFor(ctx, 0, numInputs, [&](Id n) {
    firstTet[static_cast<std::size_t>(n)] =
        n < numTets ? meshTetTetCount(tets, n)
                    : cutCellTetCount(cells, cellAt(n));
  });
  firstTet[static_cast<std::size_t>(numInputs)] = 0;
  const auto vertices = static_cast<std::size_t>(util::exclusiveScan(
                            ctx, firstTet.data(), numInputs + 1)) * 4;

  // Allocate once, then write every input's tets into its own slots.
  out.points.resize(vertices);
  out.pointScalars.resize(vertices);
  out.connectivity.resize(vertices);
  util::parallelFor(
      ctx, 0, numInputs,
      [&](Id n) {
        auto slot =
            static_cast<std::size_t>(firstTet[static_cast<std::size_t>(n)]) * 4;
        auto write = [&](const auto&... tet) {
          for (const ClipVertex* v : {&tet...}) {
            out.points[slot] = v->position;
            out.pointScalars[slot] = v->carry;
            out.connectivity[slot] = static_cast<Id>(slot);
            ++slot;
          }
        };
        if (n < numTets) {
          clipMeshTet(tets, n, write);
        } else {
          clipCutCell(cells, cellAt(n), write);
        }
      },
      /*grain=*/256);
  return firstTet[static_cast<std::size_t>(numTets)];
}

ClipResult clipUniformGrid(util::ExecutionContext& ctx,
                           const UniformGrid& grid,
                           std::span<const double> clipScalar,
                           std::span<const double> carried) {
  PVIZ_REQUIRE(static_cast<Id>(clipScalar.size()) == grid.numPoints(),
               "clip scalar must be a per-point array");
  PVIZ_REQUIRE(static_cast<Id>(carried.size()) == grid.numPoints(),
               "carried scalar must be a per-point array");

  const Id numCells = grid.numCells();
  const Id rows = grid.numCellRows();
  const Id rowLen = grid.cellDims().i;
  const auto corner = grid.cellCornerOffsets();
  const Id rowGrain =
      std::max<Id>(1, util::kDefaultGrain / std::max<Id>(Id{1}, rowLen));
  ClipResult result;

  // Pass 1: classify cells (0 = out, 1 = in, 2 = cut), swept as i-rows
  // with incremental index stepping.
  util::ScratchVector<std::uint8_t> state(ctx.arena(),
                                          static_cast<std::size_t>(numCells));
  std::optional<util::ExecutionContext::PhaseScope> phase;
  phase.emplace(ctx, "classify");
  // Eight unit-stride sign tests are summed branch-free per cell into a
  // cache-blocked staging row of doubles (counts 0..8 are exact in
  // double, and the ternary chain becomes SIMD selects); a second sweep
  // narrows the staged counts to state bytes.  The staging keeps the hot
  // loop all-double — mixing the byte store in directly defeats the
  // vectorizer at the baseline ISA.
  constexpr Id kClassifyBlock = 256;  // 2 KiB of staged counts: L1-resident
  util::parallelForChunks(
      ctx, 0, rows,
      [&](Id rowBegin, Id rowEnd) {
        for (Id row = rowBegin; row < rowEnd; ++row) {
          const double* clip =
              clipScalar.data() +
              static_cast<std::size_t>(grid.cellRowFirstPointId(row));
          const double* s0 = clip + corner[0];
          const double* s1 = clip + corner[1];
          const double* s2 = clip + corner[2];
          const double* s3 = clip + corner[3];
          const double* s4 = clip + corner[4];
          const double* s5 = clip + corner[5];
          const double* s6 = clip + corner[6];
          const double* s7 = clip + corner[7];
          std::uint8_t* stateRow =
              state.data() + static_cast<std::size_t>(row * rowLen);
          // Local trip count: the byte stores through stateRow may alias
          // the by-reference capture of rowLen as far as the vectorizer
          // can prove, which blocks the sweep.
          const Id n = rowLen;
          for (Id blockBegin = 0; blockBegin < n;
               blockBegin += kClassifyBlock) {
            const Id blockEnd = std::min(n, blockBegin + kClassifyBlock);
            double nKeep[kClassifyBlock];
            for (Id i = blockBegin; i < blockEnd; ++i) {
              nKeep[i - blockBegin] = (s0[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s1[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s2[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s3[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s4[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s5[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s6[i] >= 0.0 ? 1.0 : 0.0) +
                                      (s7[i] >= 0.0 ? 1.0 : 0.0);
            }
            for (Id i = blockBegin; i < blockEnd; ++i) {
              const double k = nKeep[i - blockBegin];
              stateRow[i] =
                  static_cast<std::uint8_t>(k == 8.0 ? 1 : (k == 0.0 ? 0 : 2));
            }
          }
        }
      },
      rowGrain);

  // Compacted whole-kept and cut lists replace the full-grid re-sweep;
  // both are in ascending cell order.
  const std::vector<std::int64_t> wholeList = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return state[static_cast<std::size_t>(cell)] == 1;
      });
  const std::vector<std::int64_t> cutList = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return state[static_cast<std::size_t>(cell)] == 2;
      });
  result.cellsIn = static_cast<std::int64_t>(wholeList.size());
  result.cellsCut = static_cast<std::int64_t>(cutList.size());
  result.cellsOut = numCells - result.cellsIn - result.cellsCut;

  // Pass 2a: whole kept cells — direct scatter to compacted slots.
  phase.emplace(ctx, "compact");
  result.wholeCells.cellIds.resize(wholeList.size());
  result.wholeCells.cellScalars.resize(wholeList.size());
  util::parallelFor(ctx, 0, static_cast<Id>(wholeList.size()), [&](Id n) {
    const Id cell = wholeList[static_cast<std::size_t>(n)];
    Id pts[8];
    grid.cellPointIds(grid.cellIjk(cell), pts);
    double avg = 0.0;
    for (int i = 0; i < 8; ++i) {
      avg += carried[static_cast<std::size_t>(pts[i])];
    }
    result.wholeCells.cellIds[static_cast<std::size_t>(n)] = cell;
    result.wholeCells.cellScalars[static_cast<std::size_t>(n)] = avg / 8.0;
  });

  // Pass 2b: cut cells, subdivided in order into one final-size tet soup.
  phase.emplace(ctx, "subdivide");
  clipIntoTetSoup(ctx, {}, {&grid, cutList, clipScalar, carried},
                  result.cutPieces);
  return result;
}

TetMesh clipTetMesh(util::ExecutionContext& ctx, const TetMesh& mesh,
                    std::span<const double> clipScalar) {
  PVIZ_REQUIRE(static_cast<Id>(clipScalar.size()) == mesh.numPoints(),
               "clip scalar must match mesh point count");
  TetMesh out;
  clipIntoTetSoup(ctx, {&mesh, clipScalar}, {}, out);
  return out;
}

}  // namespace pviz::vis
