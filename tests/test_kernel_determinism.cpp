// Determinism and cross-execution equivalence of the data-parallel
// kernels.
//
// The two-pass (classify → scan → generate) rewrite of the filters must
// produce byte-identical meshes and images for every execution
// configuration — thread-pool widths 1, 2, and the hardware default:
// the compaction lists are in ascending cell order, variable-size output
// is written at scanned offsets, and the exclusive scan is exact integer
// arithmetic.  Every width is compared byte-for-byte against the
// one-thread pool.  (The SoA row sweeps are checked against
// independent cell-by-cell references in the per-filter suites.)
// The scan/compaction primitives themselves are exercised on their edge
// cases (empty, single element, all zeros, totals past 2^31) against a
// serial reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "reference_common.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "util/thread_pool.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/slice.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/bvh.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/ray_tracer.h"
#include "viz/rendering/volume_renderer.h"

namespace pviz::vis {
namespace {

using reftest::poolLabel;
using reftest::poolWidths;
using reftest::withPool;

void expectIdentical(const TriangleMesh& a, const TriangleMesh& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_EQ(a.connectivity.size(), b.connectivity.size());
  ASSERT_EQ(a.pointScalars.size(), b.pointScalars.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].y, b.points[i].y);
    EXPECT_EQ(a.points[i].z, b.points[i].z);
  }
  EXPECT_EQ(a.connectivity, b.connectivity);
  EXPECT_EQ(a.pointScalars, b.pointScalars);
}

void expectIdentical(const TetMesh& a, const TetMesh& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].y, b.points[i].y);
    EXPECT_EQ(a.points[i].z, b.points[i].z);
  }
  EXPECT_EQ(a.connectivity, b.connectivity);
  EXPECT_EQ(a.pointScalars, b.pointScalars);
}

void expectIdentical(const HexSubset& a, const HexSubset& b) {
  EXPECT_EQ(a.cellIds, b.cellIds);
  EXPECT_EQ(a.cellScalars, b.cellScalars);
}

void expectIdentical(const PolylineSet& a, const PolylineSet& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_EQ(a.offsets, b.offsets);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].y, b.points[i].y);
    EXPECT_EQ(a.points[i].z, b.points[i].z);
  }
  EXPECT_EQ(a.pointScalars, b.pointScalars);
}

void expectIdentical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      EXPECT_EQ(a.at(x, y).r, b.at(x, y).r);
      EXPECT_EQ(a.at(x, y).g, b.at(x, y).g);
      EXPECT_EQ(a.at(x, y).b, b.at(x, y).b);
      EXPECT_EQ(a.at(x, y).a, b.at(x, y).a);
    }
  }
}

/// A grid with a custom per-point scalar built from a callable.
template <typename F>
UniformGrid fieldGrid(Id3 pointDims, F&& value) {
  UniformGrid g(pointDims, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  Field f = Field::zeros("v", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, value(g.pointPosition(p)));
  }
  g.addField(std::move(f));
  return g;
}

// ---- exclusiveScan edge cases -----------------------------------------

std::int64_t serialScanReference(std::vector<std::int64_t>& counts) {
  std::int64_t running = 0;
  for (auto& c : counts) {
    const std::int64_t v = c;
    c = running;
    running += v;
  }
  return running;
}

TEST(ExclusiveScan, EmptyArray) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  std::vector<std::int64_t> counts;
  EXPECT_EQ(util::exclusiveScan(ctx, counts), 0);
  EXPECT_TRUE(counts.empty());
}

TEST(ExclusiveScan, SingleElement) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  std::vector<std::int64_t> counts{7};
  EXPECT_EQ(util::exclusiveScan(ctx, counts), 7);
  EXPECT_EQ(counts[0], 0);
}

TEST(ExclusiveScan, AllZeros) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  std::vector<std::int64_t> counts(100000, 0);
  EXPECT_EQ(util::exclusiveScan(ctx, counts), 0);
  for (std::int64_t c : counts) EXPECT_EQ(c, 0);
}

TEST(ExclusiveScan, TotalsPastTwoToTheThirtyOne) {
  // 2^20 elements of 2^13 each: total 2^33, and every element past index
  // 2^18 has an offset over 2^31 — the scan must carry exact 64-bit sums
  // on every pool width.
  const std::size_t n = std::size_t{1} << 20;
  const std::vector<std::int64_t> input(n, 1 << 13);
  std::vector<std::int64_t> reference = input;
  const std::int64_t refTotal = serialScanReference(reference);
  ASSERT_EQ(refTotal, std::int64_t{1} << 33);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    std::vector<std::int64_t> counts = input;
    const std::int64_t total =
        withPool(workers, [&](util::ExecutionContext& ctx) {
          return util::exclusiveScan(ctx, counts);
        });
    EXPECT_EQ(total, refTotal);
    EXPECT_EQ(counts, reference);
  }
}

TEST(ExclusiveScan, MatchesSerialReferenceOnEveryConfig) {
  // Irregular counts long enough to take the three-phase parallel path.
  std::vector<std::int64_t> input(200001);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::int64_t>((i * 2654435761u) % 7);
  }
  std::vector<std::int64_t> reference = input;
  const std::int64_t refTotal = serialScanReference(reference);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    std::vector<std::int64_t> counts = input;
    const std::int64_t total =
        withPool(workers, [&](util::ExecutionContext& ctx) {
          return util::exclusiveScan(ctx, counts);
        });
    EXPECT_EQ(total, refTotal);
    EXPECT_EQ(counts, reference);
  }
}

TEST(ParallelSelect, AscendingAndConfigInvariant) {
  const std::int64_t n = 100000;
  auto pred = [](std::int64_t i) { return i % 3 == 0 || i % 7 == 0; };
  std::vector<std::int64_t> reference;
  for (std::int64_t i = 0; i < n; ++i) {
    if (pred(i)) reference.push_back(i);
  }
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    const auto selected =
        withPool(workers, [&](util::ExecutionContext& ctx) {
          return util::parallelSelect(ctx, n, pred, /*grain=*/1024);
        });
    EXPECT_EQ(selected, reference);
  }
}

// ---- filters: byte-identical output across every execution config ----

TEST(KernelDeterminism, ContourAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ContourFilter filter;
  filter.setIsovalues(
      ContourFilter::uniformIsovalues(g.field("energy"), 3));
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").surface;
  };
  const TriangleMesh reference = withPool(1, run);
  EXPECT_GT(reference.numTriangles(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, ThresholdAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ThresholdFilter filter;
  filter.setRange(1.2, 2.2);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").kept;
  };
  const HexSubset reference = withPool(1, run);
  EXPECT_GT(reference.numCells(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, ThresholdCellFieldAcrossConfigs) {
  // Cell-associated fields take the flat (non-row-sweep) classify loop.
  UniformGrid g = sim::makeCloverField(16);
  Field f = Field::zeros("cellv", Association::Cells, 1, g.numCells());
  for (Id c = 0; c < g.numCells(); ++c) {
    f.setScalar(c, static_cast<double>(c % 97) / 97.0);
  }
  g.addField(std::move(f));
  ThresholdFilter filter;
  filter.setRange(0.25, 0.75);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "cellv").kept;
  };
  const HexSubset reference = withPool(1, run);
  EXPECT_GT(reference.numCells(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, ClipSphereAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ClipSphereFilter filter;
  filter.setSphere(g.bounds().center(), 0.3);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").clipped;
  };
  const auto reference = withPool(1, run);
  EXPECT_GT(reference.cellsCut, 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    const auto clipped = withPool(workers, run);
    expectIdentical(clipped.cutPieces, reference.cutPieces);
    expectIdentical(clipped.wholeCells, reference.wholeCells);
    EXPECT_EQ(clipped.cellsIn, reference.cellsIn);
    EXPECT_EQ(clipped.cellsCut, reference.cellsCut);
    EXPECT_EQ(clipped.cellsOut, reference.cellsOut);
  }
}

TEST(KernelDeterminism, IsovolumeAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  IsovolumeFilter filter;
  filter.setRange(1.3, 2.1);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy");
  };
  const auto ref = withPool(1, run);
  EXPECT_GT(ref.cutPieces.numTets(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    const auto result = withPool(workers, run);
    expectIdentical(result.wholeCells, ref.wholeCells);
    expectIdentical(result.cutPieces, ref.cutPieces);
  }
}

TEST(KernelDeterminism, ExternalFacesAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  auto run = [&](util::ExecutionContext& ctx) {
    return extractExternalFaces(ctx, g, "energy").mesh;
  };
  const TriangleMesh reference = withPool(1, run);
  EXPECT_GT(reference.numTriangles(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, RayTracedImageAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  RayTracer tracer;
  tracer.setImageSize(48, 48);
  tracer.setCameraCount(1);
  auto render = [&](util::ExecutionContext& ctx) {
    auto result = tracer.run(ctx, g, "energy");
    return result.images.at(0);
  };
  const Image reference = withPool(1, render);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, render), reference);
  }
}

// ---- arena hygiene: no kernel reads a scratch byte it did not write ---

/// Every filter's output on one grid.
struct AllFilterOutputs {
  TriangleMesh contour, slice, faces;
  HexSubset threshold, isoWhole;
  ClipResult clip;
  TetMesh isoCut;
  PolylineSet streamlines;
  Image traced{1, 1}, volume{1, 1};
};

/// One filter run on a context, storing its output into the struct.
using FilterRun =
    std::function<void(util::ExecutionContext&, AllFilterOutputs&)>;

std::vector<FilterRun> everyFilter(const UniformGrid& g) {
  return {
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        ContourFilter f;
        f.setIsovalues(ContourFilter::uniformIsovalues(g.field("energy"), 3));
        out.contour = f.run(ctx, g, "energy").surface;
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        out.slice = SliceFilter().run(ctx, g, "energy").surface;
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        out.faces = extractExternalFaces(ctx, g, "energy").mesh;
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        ThresholdFilter f;
        f.setRange(1.2, 2.2);
        out.threshold = f.run(ctx, g, "energy").kept;
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        ClipSphereFilter f;
        f.setSphere(g.bounds().center(), 0.3);
        out.clip = f.run(ctx, g, "energy").clipped;
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        IsovolumeFilter f;
        f.setRange(1.3, 2.1);
        auto result = f.run(ctx, g, "energy");
        out.isoWhole = std::move(result.wholeCells);
        out.isoCut = std::move(result.cutPieces);
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        ParticleAdvectionFilter f;
        f.setSeedCount(300);
        f.setMaxSteps(150);
        f.setStepLength(0.01);
        out.streamlines = f.run(ctx, g, "velocity").streamlines;
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        RayTracer f;
        f.setImageSize(48, 48);
        f.setCameraCount(1);
        out.traced = f.run(ctx, g, "energy").images.at(0);
      },
      [&g](util::ExecutionContext& ctx, AllFilterOutputs& out) {
        VolumeRenderer f;
        f.setImageSize(48, 48);
        f.setCameraCount(1);
        out.volume = f.run(ctx, g, "energy").images.at(0);
      },
  };
}

/// Put `perClass` blocks of every size class up to `largestClass`,
/// filled with 0xA5, on top of the arena's free lists, so the next
/// acquires of each class are served poisoned blocks.
void poisonFreeLists(util::ScratchArena& arena, std::size_t largestClass,
                     int perClass) {
  std::vector<void*> blocks;
  for (std::size_t cls = util::ScratchArena::sizeClass(1); cls <= largestClass;
       cls *= 2) {
    for (int i = 0; i < perClass; ++i) {
      blocks.push_back(arena.acquire(cls));
      std::memset(blocks.back(), 0xA5, cls);
    }
  }
  for (void* block : blocks) arena.release(block);
}

TEST(KernelDeterminism, PoisonedArenaMatchesFreshContext) {
  // Arena blocks are handed out uninitialized, fresh or reused.  Each
  // filter runs once on its own fresh context and once on a context
  // whose free lists were just topped with poisoned blocks of every
  // size class the filters ask for at this grid size, several deep: a
  // kernel that reads scratch before writing it diverges between the
  // two.
  const UniformGrid g = sim::makeCloverField(16);
  constexpr std::size_t kLargestClass = std::size_t{1} << 20;
  constexpr int kBlocksPerClass = 16;
  for (unsigned workers : {1u, 2u}) {
    SCOPED_TRACE(poolLabel(workers));
    AllFilterOutputs fresh;
    AllFilterOutputs poisoned;
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    for (const FilterRun& run : everyFilter(g)) {
      withPool(workers, [&](util::ExecutionContext& freshCtx) {
        run(freshCtx, fresh);
        return 0;
      });
      poisonFreeLists(ctx.arena(), kLargestClass, kBlocksPerClass);
      const util::ScratchArena::Stats before = ctx.arena().stats();
      run(ctx, poisoned);
      // No fresh block was handed out: every acquire took a free-list
      // block, poisoned unless the same run released it first.
      const util::ScratchArena::Stats after = ctx.arena().stats();
      EXPECT_EQ(after.acquires - before.acquires,
                after.reuseHits - before.reuseHits);
    }
    expectIdentical(poisoned.contour, fresh.contour);
    expectIdentical(poisoned.slice, fresh.slice);
    expectIdentical(poisoned.faces, fresh.faces);
    expectIdentical(poisoned.threshold, fresh.threshold);
    expectIdentical(poisoned.clip.cutPieces, fresh.clip.cutPieces);
    expectIdentical(poisoned.clip.wholeCells, fresh.clip.wholeCells);
    EXPECT_EQ(poisoned.clip.cellsCut, fresh.clip.cellsCut);
    expectIdentical(poisoned.isoWhole, fresh.isoWhole);
    expectIdentical(poisoned.isoCut, fresh.isoCut);
    expectIdentical(poisoned.streamlines, fresh.streamlines);
    expectIdentical(poisoned.traced, fresh.traced);
    expectIdentical(poisoned.volume, fresh.volume);
  }
}

// ---- awkward grid shapes ----------------------------------------------

TEST(KernelDeterminism, DegenerateOneByOneByNGrid) {
  // A 1×1×N column of cells: every row has length 1, which exercises the
  // end-cell patch-up of the row fills, where both row ends are the same
  // cell.
  const UniformGrid g = fieldGrid({2, 2, 65}, [](const Vec3& p) {
    return p.z - 31.5;
  });
  ContourFilter filter;
  filter.setIsovalues({0.0});
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "v").surface;
  };
  const TriangleMesh reference = withPool(1, run);
  EXPECT_GT(reference.numTriangles(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, DegenerateGridEveryFilterEveryConfig) {
  // The 1×1×N column through threshold, external faces, and clip — all
  // the row-swept kernels, at rowLen == 1.
  const UniformGrid g = fieldGrid({2, 2, 65}, [](const Vec3& p) {
    return p.z - 31.5;
  });
  ThresholdFilter threshold;
  threshold.setRange(-20.0, 20.0);
  ClipSphereFilter clip;
  clip.setSphere(g.bounds().center(), 10.0);
  auto run = [&](util::ExecutionContext& ctx) {
    return std::make_tuple(threshold.run(ctx, g, "v").kept,
                           extractExternalFaces(ctx, g, "v").mesh,
                           clip.run(ctx, g, "v").clipped.wholeCells);
  };
  const auto reference = withPool(1, run);
  EXPECT_GT(std::get<0>(reference).numCells(), 0);
  EXPECT_GT(std::get<1>(reference).numTriangles(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    const auto result = withPool(workers, run);
    expectIdentical(std::get<0>(result), std::get<0>(reference));
    expectIdentical(std::get<1>(result), std::get<1>(reference));
    expectIdentical(std::get<2>(result), std::get<2>(reference));
  }
}

TEST(KernelDeterminism, SingleCrossedCell) {
  // One point above the isovalue in a corner: exactly one cell crosses.
  UniformGrid g(UniformGrid({9, 9, 9}, {0, 0, 0}, {1, 1, 1}));
  Field f = Field::zeros("v", Association::Points, 1, g.numPoints());
  f.setScalar(0, 10.0);
  g.addField(std::move(f));
  ContourFilter filter;
  filter.setIsovalues({5.0});
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "v").surface;
  };
  const TriangleMesh reference = withPool(1, run);
  EXPECT_EQ(reference.numTriangles(), 1);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, ZeroCrossedCells) {
  const UniformGrid g =
      fieldGrid({9, 9, 9}, [](const Vec3&) { return 1.0; });
  ContourFilter filter;
  filter.setIsovalues({5.0});
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    const TriangleMesh mesh =
        withPool(workers, [&](util::ExecutionContext& ctx) {
          return filter.run(ctx, g, "v").surface;
        });
    EXPECT_EQ(mesh.numTriangles(), 0);
    EXPECT_TRUE(mesh.points.empty());
  }
}

// ---- BVH: parallel build must reproduce the serial tree ---------------

/// A grid with a custom per-point velocity built from a callable.
template <typename F>
UniformGrid velocityGrid(Id3 pointDims, F&& velocity) {
  UniformGrid g(pointDims, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  Field f = Field::zeros("velocity", Association::Points, 3, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setVec3(p, velocity(g.pointPosition(p)));
  }
  g.addField(std::move(f));
  return g;
}

TEST(KernelDeterminism, AdvectionStreamlineAcrossConfigs) {
  // The work-stealing schedule must be a pure scheduling choice: every
  // pool width — and therefore every steal interleaving — byte-identical
  // to the one-thread reference.
  const UniformGrid g = sim::makeCloverField(16);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(300);
  filter.setMaxSteps(150);
  filter.setStepLength(0.01);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity").streamlines;
  };
  const PolylineSet reference = withPool(1, run);
  EXPECT_GT(reference.numLines(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, AdvectionBatchAndRoundInvariant) {
  // Any batch/round granularity must agree bit-for-bit: the
  // per-particle integration is shared, the knobs only re-cut who runs
  // what.  A round of at least maxSteps integrates every particle to
  // completion in one pass with no compaction; with batch 86 each of the
  // 3 slots also owns exactly one contiguous range, the static
  // one-span-per-worker split.
  const UniformGrid g = sim::makeCloverField(16);
  constexpr Id kMaxSteps = 90;
  auto run = [&](Id batch, Id roundSteps) {
    return withPool(3, [&](util::ExecutionContext& ctx) {
      ParticleAdvectionFilter filter;
      filter.setSeedCount(257);
      filter.setMaxSteps(kMaxSteps);
      filter.setStepLength(0.01);
      filter.setBatchSize(batch);
      filter.setRoundSteps(roundSteps);
      return filter.run(ctx, g, "velocity").streamlines;
    });
  };
  const PolylineSet reference = run(256, 64);
  EXPECT_GT(reference.numLines(), 0);
  expectIdentical(run(86, kMaxSteps), reference);
  expectIdentical(run(256, 10 * kMaxSteps), reference);
  expectIdentical(run(7, 5), reference);
  expectIdentical(run(1, 1), reference);
}

TEST(KernelDeterminism, AdvectionPathlineAcrossConfigs) {
  // Pathlines sample two time steps per stage; the second field is a
  // genuinely different flow so the blend actually varies in time.
  UniformGrid g = sim::makeCloverField(16);
  Field next = Field::zeros("velocity_next", Association::Points, 3,
                            g.numPoints());
  const Field& now = g.field("velocity");
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 v = now.vec3(p);
    next.setVec3(p, {-v.y, v.x, v.z * 0.5});
  }
  g.addField(std::move(next));
  ParticleAdvectionFilter filter;
  filter.setSeedCount(200);
  filter.setMaxSteps(120);
  filter.setStepLength(0.02);  // 50 steps span the t ∈ [0,1] window
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity", "velocity_next").streamlines;
  };
  const PolylineSet reference = withPool(1, run);
  EXPECT_GT(reference.numLines(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, AdvectionDegenerateColumnGrid) {
  // A 1×1×N column: particles ride a +z flow down a single-cell-wide
  // domain, so nearly every trilinear sample sits on cell boundaries
  // and most particles run off the far end at different step counts —
  // maximal compaction churn.
  const UniformGrid g = velocityGrid({2, 2, 65}, [](const Vec3& p) {
    return Vec3{0.0, 0.0, 1.0 + 0.1 * p.z};
  });
  ParticleAdvectionFilter filter;
  filter.setSeedCount(100);
  filter.setMaxSteps(400);
  filter.setStepLength(0.1);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity").streamlines;
  };
  const PolylineSet reference = withPool(1, run);
  EXPECT_GT(reference.numLines(), 0);
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run), reference);
  }
}

TEST(KernelDeterminism, AdvectionZeroMagnitudeField) {
  // A zero field advances nothing: every particle survives all steps in
  // place.  Exercises the no-termination path (no compaction ever
  // fires) and pins the exact expected geometry.
  const UniformGrid g =
      velocityGrid({5, 5, 5}, [](const Vec3&) { return Vec3{}; });
  ParticleAdvectionFilter filter;
  filter.setSeedCount(40);
  filter.setMaxSteps(30);
  filter.setStepLength(0.01);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity");
  };
  const ParticleAdvectionFilter::Result reference = withPool(1, run);
  EXPECT_EQ(reference.terminated, 0);
  EXPECT_EQ(reference.totalSteps, 40 * 30);
  ASSERT_EQ(reference.streamlines.numLines(), 40);
  for (Id line = 0; line < 40; ++line) {
    ASSERT_EQ(reference.streamlines.lineSize(line), 31);
  }
  for (unsigned workers : poolWidths()) {
    SCOPED_TRACE(poolLabel(workers));
    expectIdentical(withPool(workers, run).streamlines,
                    reference.streamlines);
  }
}

TEST(KernelDeterminism, BvhParallelBuildMatchesSerial) {
  // 32^3 external faces → 12288 triangles, past the parallel-build
  // threshold, so the skeleton-split + subtree-task path actually runs
  // when the pool has more than one participant.
  util::ThreadPool refPool;
  util::ExecutionContext refCtx(refPool);
  const UniformGrid g = sim::makeCloverField(32);
  const TriangleMesh mesh = extractExternalFaces(refCtx, g, "energy").mesh;
  const Bvh serial(refCtx, mesh, /*maxLeafSize=*/4, /*parallelBuild=*/false);
  for (unsigned workers : poolWidths()) {
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    const Bvh parallel(ctx, mesh, /*maxLeafSize=*/4, /*parallelBuild=*/true);

    EXPECT_EQ(parallel.triangleOrder(), serial.triangleOrder())
        << "pool size " << workers;
    ASSERT_EQ(parallel.nodes().size(), serial.nodes().size())
        << "pool size " << workers;
    for (std::size_t i = 0; i < serial.nodes().size(); ++i) {
      const Bvh::Node& a = parallel.nodes()[i];
      const Bvh::Node& b = serial.nodes()[i];
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
      EXPECT_EQ(a.first, b.first);
      EXPECT_EQ(a.count, b.count);
      EXPECT_EQ(a.box.lo.x, b.box.lo.x);
      EXPECT_EQ(a.box.lo.y, b.box.lo.y);
      EXPECT_EQ(a.box.lo.z, b.box.lo.z);
      EXPECT_EQ(a.box.hi.x, b.box.hi.x);
      EXPECT_EQ(a.box.hi.y, b.box.hi.y);
      EXPECT_EQ(a.box.hi.z, b.box.hi.z);
    }
  }
}

}  // namespace
}  // namespace pviz::vis
