// Volume rendering tests.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "reference_common.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "viz/rendering/volume_renderer.h"
#include "volume_reference.h"

namespace pviz::vis {
namespace {

UniformGrid dataset() { return sim::makeCloverField(12); }

TEST(VolumeRenderer, AccumulatedAlphaStaysInRange) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(32, 32);
  renderer.setCameraCount(2);
  renderer.setKeepFirstImageOnly(false);
  const auto result = renderer.run(ctx, g, "energy");
  ASSERT_EQ(result.images.size(), 2u);
  for (const auto& image : result.images) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        const Color& c = image.at(x, y);
        ASSERT_GE(c.a, 0.0);
        ASSERT_LE(c.a, 1.0 + 1e-9);
        ASSERT_GE(c.r, 0.0);
      }
    }
  }
}

TEST(VolumeRenderer, CoversTheDatasetSilhouette) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(40, 40);
  renderer.setCameraCount(1);
  const auto result = renderer.run(ctx, g, "energy");
  const Image& image = result.images.front();
  EXPECT_GT(image.coveredPixels(0.05), 40 * 40 / 10);
  EXPECT_LT(image.coveredPixels(0.05), 40 * 40);
}

TEST(VolumeRenderer, SampleAccountingIsPlausible) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(24, 24);
  renderer.setCameraCount(2);
  renderer.setSamplesAcross(64);
  const auto result = renderer.run(ctx, g, "energy");
  EXPECT_EQ(result.raysTraced, 24 * 24 * 2);
  EXPECT_GT(result.samplesTaken, result.raysTraced);  // many samples/ray
  EXPECT_LT(result.samplesTaken, result.raysTraced * 80);
}

TEST(VolumeRenderer, TransparentTransferFunctionGivesEmptyImage) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(16, 16);
  renderer.setCameraCount(1);
  renderer.setColorTable(
      ColorTable({{0.0, {1, 0, 0, 0.0}}, {1.0, {1, 0, 0, 0.0}}}));
  const auto result = renderer.run(ctx, g, "energy");
  EXPECT_EQ(result.images.front().coveredPixels(1e-6), 0);
}

TEST(VolumeRenderer, OpaqueTransferFunctionTerminatesEarly) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer lowOpacity;
  lowOpacity.setImageSize(24, 24);
  lowOpacity.setCameraCount(1);
  lowOpacity.setColorTable(
      ColorTable({{0.0, {1, 1, 1, 0.01}}, {1.0, {1, 1, 1, 0.01}}}));
  VolumeRenderer highOpacity;
  highOpacity.setImageSize(24, 24);
  highOpacity.setCameraCount(1);
  highOpacity.setColorTable(
      ColorTable({{0.0, {1, 1, 1, 0.95}}, {1.0, {1, 1, 1, 0.95}}}));
  const auto low = lowOpacity.run(ctx, g, "energy");
  const auto high = highOpacity.run(ctx, g, "energy");
  // Early termination: opaque volumes take far fewer samples.
  EXPECT_LT(high.samplesTaken * 3, low.samplesTaken);
}

TEST(VolumeRenderer, ProfileWorkingSetIsTheField) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(16, 16);
  renderer.setCameraCount(1);
  const auto result = renderer.run(ctx, g, "energy");
  ASSERT_EQ(result.profile.phases.size(), 1u);
  EXPECT_EQ(result.profile.phases[0].name, "ray-march");
  EXPECT_DOUBLE_EQ(result.profile.phases[0].workingSetBytes,
                   g.field("energy").sizeBytes());
  EXPECT_GT(result.profile.phases[0].flops, 0.0);
}

TEST(VolumeRenderer, ValidatesParameters) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  VolumeRenderer renderer;
  EXPECT_THROW(renderer.setImageSize(-1, 4), Error);
  EXPECT_THROW(renderer.setCameraCount(0), Error);
  EXPECT_THROW(renderer.setSamplesAcross(1), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  EXPECT_THROW(renderer.run(ctx, g, "v"), Error);
}

TEST(VolumeRenderer, MoreSamplesRefineTheImageConsistently) {
  util::ThreadPool pool;
  util::ExecutionContext ctx(pool);
  const UniformGrid g = dataset();
  VolumeRenderer coarse;
  coarse.setImageSize(20, 20);
  coarse.setCameraCount(1);
  coarse.setSamplesAcross(32);
  VolumeRenderer fine;
  fine.setImageSize(20, 20);
  fine.setCameraCount(1);
  fine.setSamplesAcross(256);
  const Color a = coarse.run(ctx, g, "energy").images.front().average();
  const Color b = fine.run(ctx, g, "energy").images.front().average();
  // Same scene: averages agree within a loose tolerance thanks to the
  // step-size opacity correction.
  EXPECT_NEAR(a.a, b.a, 0.08);
}

// ---- the ray march against a ray-by-ray serial reference ----

struct MarchCase {
  int width = 72;  // 72 x 64 pixels: two 4096-pixel chunks per camera
  int height = 64;
  int cameras = 3;
  int samplesAcross = 256;
  ColorTable colors = ColorTable::rainbowVolume();
};

/// Render every camera of `grid` on every exec config and compare each
/// image and the sample count with the serial reference bit for bit.
void expectMatchesReferenceOnEveryConfig(const UniformGrid& grid,
                                         const std::string& fieldName,
                                         const MarchCase& c) {
  const reftest::VolumeReference want =
      reftest::referenceVolume(grid, fieldName, c.width, c.height, c.cameras,
                               c.samplesAcross, c.colors);
  ASSERT_GT(want.samplesTaken, 0);
  VolumeRenderer renderer;
  renderer.setImageSize(c.width, c.height);
  renderer.setCameraCount(c.cameras);
  renderer.setSamplesAcross(c.samplesAcross);
  renderer.setColorTable(c.colors);
  renderer.setKeepFirstImageOnly(false);
  for (unsigned workers : reftest::poolWidths()) {
    SCOPED_TRACE(reftest::poolLabel(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    const VolumeRenderer::Result got = renderer.run(ctx, grid, fieldName);
    EXPECT_EQ(got.samplesTaken, want.samplesTaken);
    ASSERT_EQ(got.images.size(), want.images.size());
    for (std::size_t cam = 0; cam < want.images.size(); ++cam) {
      EXPECT_TRUE(reftest::sameImageBits(got.images[cam], want.images[cam]))
          << "camera " << cam;
    }
  }
}

/// 13 x 8 x 10 cells with a non-zero origin and unequal, non-unit
/// spacing, carrying an oscillating point field "w".
UniformGrid skewedGrid() {
  UniformGrid g({14, 9, 11}, {-0.7, 0.3, 1.25}, {0.13, 0.21, 0.09});
  Field w = Field::zeros("w", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 x = g.pointPosition(p);
    w.setScalar(p, std::sin(5.0 * x.x) * std::cos(3.0 * x.y) + x.z);
  }
  g.addField(std::move(w));
  return g;
}

TEST(VolumeRendererReference, UnitOpacityExponent) {
  // 256 samples across: the opacity exponent is exactly 1.0.
  expectMatchesReferenceOnEveryConfig(dataset(), "energy", MarchCase{});
}

TEST(VolumeRendererReference, CoarseStepsTakeThePowPath) {
  MarchCase c;
  c.samplesAcross = 64;
  expectMatchesReferenceOnEveryConfig(dataset(), "energy", c);
}

TEST(VolumeRendererReference, FineStepsTakeThePowPath) {
  MarchCase c;
  c.samplesAcross = 1000;
  c.cameras = 2;
  expectMatchesReferenceOnEveryConfig(dataset(), "energy", c);
}

TEST(VolumeRendererReference, NonCubeGridWithOriginAndSpacing) {
  const UniformGrid g = skewedGrid();
  expectMatchesReferenceOnEveryConfig(g, "w", MarchCase{});
  MarchCase coarse;
  coarse.samplesAcross = 64;
  expectMatchesReferenceOnEveryConfig(g, "w", coarse);
}

TEST(VolumeRendererReference, OpaqueTable) {
  MarchCase c;
  c.colors = ColorTable({{0.0, {1, 1, 1, 0.95}}, {1.0, {1, 1, 1, 0.95}}});
  expectMatchesReferenceOnEveryConfig(dataset(), "energy", c);
}

TEST(VolumeRendererReference, TransparentTable) {
  MarchCase c;
  c.colors = ColorTable({{0.0, {1, 0, 0, 0.0}}, {1.0, {1, 0, 0, 0.0}}});
  expectMatchesReferenceOnEveryConfig(dataset(), "energy", c);
}

TEST(VolumeRendererReference, OnePixelWideImage) {
  MarchCase c;
  c.width = 1;
  c.height = 97;
  expectMatchesReferenceOnEveryConfig(dataset(), "energy", c);
}

}  // namespace
}  // namespace pviz::vis
