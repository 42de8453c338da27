#include "viz/filters/isovolume.h"

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

IsovolumeFilter::Result IsovolumeFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "isovolume requires a point field");
  PVIZ_REQUIRE(field.components() == 1, "isovolume requires a scalar field");

  const Id numPoints = grid.numPoints();
  const std::vector<double>& f = field.data();

  // Stage 1 keeps f >= lo; stage 2 keeps f <= hi.
  util::ScratchVector<double> stage1;
  util::ScratchVector<double> stage2;
  {
    auto rangePhase = ctx.phase("range-fields");
    stage1.acquire(ctx.arena(), static_cast<std::size_t>(numPoints));
    stage2.acquire(ctx.arena(), static_cast<std::size_t>(numPoints));
    util::parallelFor(ctx, 0, numPoints, [&](Id p) {
      const double v = f[static_cast<std::size_t>(p)];
      stage1[static_cast<std::size_t>(p)] = v - lo_;
      stage2[static_cast<std::size_t>(p)] = hi_ - v;
    });
  }
  ClipResult low = clipUniformGrid(
      ctx, grid, std::span<const double>(stage1.data(), stage1.size()), f);

  Result result;
  {
    auto subdividePhase = ctx.phase("subdivide");

    // Stage 2a: re-examine the whole cells kept by stage 1 against hi.
    // Rather than clip the full grid again, clip only cells stage 1 kept
    // whole: the straddling ones go through the tet path.
    const std::vector<Id>& keptIds = low.wholeCells.cellIds;
    util::ScratchVector<std::uint8_t> cellState(ctx.arena(), keptIds.size());
    util::parallelFor(ctx, 0, static_cast<Id>(keptIds.size()), [&](Id n) {
      Id pts[8];
      grid.cellPointIds(grid.cellIjk(keptIds[static_cast<std::size_t>(n)]),
                        pts);
      int nKeep = 0;
      for (int i = 0; i < 8; ++i) {
        if (stage2[static_cast<std::size_t>(pts[i])] >= 0.0) ++nKeep;
      }
      cellState[static_cast<std::size_t>(n)] =
          nKeep == 8 ? 1 : (nKeep == 0 ? 0 : 2);
    });

    // Cells still whole after the hi recheck, compacted in order.
    const std::vector<std::int64_t> wholeSel = util::parallelSelect(
        ctx, static_cast<std::int64_t>(keptIds.size()), [&](std::int64_t n) {
          return cellState[static_cast<std::size_t>(n)] == 1;
        });
    result.wholeCells.cellIds.resize(wholeSel.size());
    result.wholeCells.cellScalars.resize(wholeSel.size());
    util::parallelFor(ctx, 0, static_cast<Id>(wholeSel.size()), [&](Id w) {
      const auto n = static_cast<std::size_t>(wholeSel[static_cast<std::size_t>(w)]);
      result.wholeCells.cellIds[static_cast<std::size_t>(w)] = keptIds[n];
      result.wholeCells.cellScalars[static_cast<std::size_t>(w)] =
          low.wholeCells.cellScalars[n];
    });

    // Straddling cells as grid cell ids, in ascending order.
    std::vector<std::int64_t> straddle = util::parallelSelect(
        ctx, static_cast<std::int64_t>(keptIds.size()), [&](std::int64_t n) {
          return cellState[static_cast<std::size_t>(n)] == 2;
        });
    for (std::int64_t& n : straddle) n = keptIds[static_cast<std::size_t>(n)];

    // Stage 2b: re-clip stage 1's tets against hi (their carried scalar IS
    // the field), then subdivide the straddling cells, in one scan.
    util::ScratchVector<double> tetClip(ctx.arena(),
                                        low.cutPieces.pointScalars.size());
    util::parallelFor(ctx, 0, static_cast<Id>(tetClip.size()), [&](Id i) {
      tetClip[static_cast<std::size_t>(i)] =
          hi_ - low.cutPieces.pointScalars[static_cast<std::size_t>(i)];
    });
    result.lowClipTets = clipIntoTetSoup(
        ctx, {&low.cutPieces, {tetClip.data(), tetClip.size()}},
        {&grid, straddle, {stage2.data(), stage2.size()}, f},
        result.cutPieces);
  }

  // --- Workload characterization: two full classification sweeps plus
  // subdivision — the paper measures isovolume as the most memory-bound
  // of the set (highest LLC miss rate, lots of waiting on memory).
  result.profile.kernel = "isovolume";
  result.profile.elements = grid.numCells();
  const double points = static_cast<double>(numPoints);
  const double cells = static_cast<double>(grid.numCells());
  const double cut = static_cast<double>(low.cellsCut) +
                     static_cast<double>(result.cutPieces.numTets()) / 3.0;
  const double keptTets = static_cast<double>(result.cutPieces.numTets());

  WorkProfile& ranges = result.profile.addPhase("range-fields");
  ranges.flops = points * 4;
  ranges.intOps = points * 8;
  ranges.memOps = points * 6;
  ranges.bytesStreamed = field.sizeBytes() * 2 + points * 16;
  ranges.parallelFraction = 0.995;
  ranges.overlap = 0.9;

  WorkProfile& classify = result.profile.addPhase("classify-x2");
  classify.flops = cells * 16;
  classify.intOps = cells * 60;
  classify.memOps = cells * 22;
  classify.bytesStreamed = points * 16 + cells * 2;
  classify.bytesReused = cells * 72;
  classify.irregularAccesses = cells * 3.2;  // two gather sweeps
  classify.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                             static_cast<double>(grid.pointDims().j) * 8 * 8;
  classify.parallelFraction = 0.99;
  classify.overlap = 0.88;

  WorkProfile& subdivide = result.profile.addPhase("subdivide");
  subdivide.flops = cut * 6 * 36 + keptTets * 95;
  subdivide.intOps = cut * 300 + keptTets * 80;
  subdivide.memOps = cut * 66 + keptTets * 44;
  subdivide.bytesStreamed = keptTets * 4 * 40 + cut * 24;
  subdivide.bytesReused = cut * 8 * 24;
  subdivide.irregularAccesses = cut * 22;
  subdivide.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                              static_cast<double>(grid.pointDims().j) * 8 * 8;
  subdivide.parallelFraction = 0.95;
  subdivide.overlap = 0.78;

  WorkProfile& compact = result.profile.addPhase("compact");
  compact.intOps = cells * 8;
  compact.memOps = cells * 4;
  compact.bytesStreamed = cells * 9 +
                          static_cast<double>(result.wholeCells.numCells()) * 16;
  compact.parallelFraction = 0.25;
  compact.overlap = 0.9;

  return result;
}

}  // namespace pviz::vis
