#include "viz/filters/threshold.h"

#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

ThresholdFilter::Result ThresholdFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.components() == 1, "threshold requires a scalar field");
  const Id numCells = grid.numCells();
  const bool pointAssoc = field.association() == Association::Points;
  const std::vector<double>& values = field.data();

  // Pass 1: per-cell value + keep flag, swept as i-rows with incremental
  // index stepping; pass 2 then touches only the kept cells.
  util::ScratchVector<std::uint8_t> keep(ctx.arena(),
                                         static_cast<std::size_t>(numCells));
  util::ScratchVector<double> cellValue(ctx.arena(),
                                        static_cast<std::size_t>(numCells));
  std::optional<util::ExecutionContext::PhaseScope> phase;
  phase.emplace(ctx, "select");
  if (pointAssoc) {
    const Id rows = grid.numCellRows();
    const Id rowLen = grid.cellDims().i;
    const auto corner = grid.cellCornerOffsets();
    const Id rowGrain =
        std::max<Id>(1, util::kDefaultGrain / std::max<Id>(Id{1}, rowLen));
    // The eight corner reads are eight unit-stride double streams at
    // fixed offsets into the point field, summed in c0..c7 order, and
    // the keep flag is a branch-free compare-and-mask: one SIMD sweep
    // per row.
    const double lo = lo_;
    const double hi = hi_;
    util::parallelForChunks(
        ctx, 0, rows,
        [&](Id rowBegin, Id rowEnd) {
          for (Id row = rowBegin; row < rowEnd; ++row) {
            const std::size_t cell = static_cast<std::size_t>(row * rowLen);
            const double* vals =
                values.data() +
                static_cast<std::size_t>(grid.cellRowFirstPointId(row));
            const double* s0 = vals + corner[0];
            const double* s1 = vals + corner[1];
            const double* s2 = vals + corner[2];
            const double* s3 = vals + corner[3];
            const double* s4 = vals + corner[4];
            const double* s5 = vals + corner[5];
            const double* s6 = vals + corner[6];
            const double* s7 = vals + corner[7];
            double* valueRow = cellValue.data() + cell;
            std::uint8_t* keepRow = keep.data() + cell;
            // Local trip count: the byte stores through keepRow may
            // alias the by-reference capture of rowLen as far as the
            // vectorizer can prove, which blocks the sweep.
            const Id n = rowLen;
            // Two sweeps, not one: mixing the 8-byte value store with
            // the 1-byte flag store defeats the vectorizer at the
            // baseline ISA (no single-width vector covers both), while
            // the pure-double sweep vectorizes cleanly.
            for (Id i = 0; i < n; ++i) {
              // Left-to-right association from a 0.0 seed, so the
              // average is the same double as a c0..c7 loop's, signed
              // zeros included.
              const double sum = ((((((((0.0 + s0[i]) + s1[i]) + s2[i]) +
                                      s3[i]) + s4[i]) + s5[i]) + s6[i]) +
                                  s7[i]);
              valueRow[i] = sum / 8.0;
            }
            for (Id i = 0; i < n; ++i) {
              // `&` (not `&&`): the short-circuit branch would block
              // auto-vectorization where the ISA can narrow to bytes.
              keepRow[i] = static_cast<std::uint8_t>((valueRow[i] >= lo) &
                                                     (valueRow[i] <= hi));
            }
          }
        },
        rowGrain);
  } else {
    util::parallelFor(ctx, 0, numCells, [&](Id cell) {
      const double v = values[static_cast<std::size_t>(cell)];
      cellValue[static_cast<std::size_t>(cell)] = v;
      keep[static_cast<std::size_t>(cell)] = (v >= lo_ && v <= hi_) ? 1 : 0;
    });
  }

  // Compacted kept-cell list IS the output id array.
  phase.emplace(ctx, "scan");
  const std::vector<std::int64_t> kept = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return keep[static_cast<std::size_t>(cell)] != 0;
      });
  const auto numKept = static_cast<std::int64_t>(kept.size());

  phase.emplace(ctx, "compact");
  Result result;
  result.kept.cellIds.resize(static_cast<std::size_t>(numKept));
  result.kept.cellScalars.resize(static_cast<std::size_t>(numKept));
  util::parallelFor(ctx, 0, numKept, [&](Id n) {
    const Id cell = kept[static_cast<std::size_t>(n)];
    result.kept.cellIds[static_cast<std::size_t>(n)] = cell;
    result.kept.cellScalars[static_cast<std::size_t>(n)] =
        cellValue[static_cast<std::size_t>(cell)];
  });
  phase.reset();

  // --- Workload characterization: loads/stores dominate (the paper notes
  // threshold's low IPC comes from being dominated by data movement).
  result.profile.kernel = "threshold";
  result.profile.elements = numCells;
  const double cells = static_cast<double>(numCells);
  const double keptCount = static_cast<double>(numKept);

  WorkProfile& select = result.profile.addPhase("select");
  select.flops = cells * (pointAssoc ? 10.0 : 2.0);  // average + compares
  select.intOps = cells * 14;
  select.memOps = cells * (pointAssoc ? 12.0 : 4.0);
  select.bytesStreamed = field.sizeBytes() + cells * (8 + 8);  // field + flag/value
  select.bytesReused = pointAssoc ? cells * 36 : 0.0;
  select.irregularAccesses = pointAssoc ? cells * 3.4 : 0.6 * cells;
  // Sliding plane-window gathers: LLC-resident at any size.
  select.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                           static_cast<double>(grid.pointDims().j) * 8 * 4;
  select.parallelFraction = 0.995;
  select.overlap = 0.92;

  WorkProfile& scan = result.profile.addPhase("scan");
  scan.intOps = cells * 4;
  scan.memOps = cells * 3;
  scan.bytesStreamed = cells * 8 * 2;
  scan.parallelFraction = 0.9;
  scan.overlap = 0.9;

  WorkProfile& compact = result.profile.addPhase("compact");
  compact.intOps = cells * 6 + keptCount * 6;
  compact.memOps = cells * 2 + keptCount * 4;
  compact.bytesStreamed = cells * 8 + keptCount * 16;
  compact.parallelFraction = 0.99;
  compact.overlap = 0.92;

  return result;
}

}  // namespace pviz::vis
