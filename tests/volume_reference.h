// Serial reference for the volume renderer's ray march: one ray at a
// time through the public sampling entry points (UniformGrid::sampleScalar,
// ColorTable::sampleRange) and an unconditional std::pow opacity
// correction.  The renderer hoists the per-run invariants, inlines the
// sample path and skips pow when its exponent is exactly 1.0; its images
// and sample counts must still equal this reference bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "viz/dataset/uniform_grid.h"
#include "viz/rendering/camera.h"
#include "viz/rendering/color_table.h"
#include "viz/rendering/image.h"

namespace pviz::vis::reftest {

struct VolumeReference {
  std::vector<Image> images;  ///< one per camera
  std::int64_t samplesTaken = 0;
};

/// Render every camera of the orbit with the textbook march: step from
/// the box entry, skip samples that fail to locate, composite front to
/// back with opacity `1 - (1 - a)^(step / (diagonal / 256))`, stop once
/// the accumulated alpha exceeds 0.99.
inline VolumeReference referenceVolume(const UniformGrid& grid,
                                       const std::string& fieldName,
                                       int width, int height, int cameraCount,
                                       int samplesAcross,
                                       const ColorTable& colors) {
  const Field& field = grid.field(fieldName);
  const Bounds box = grid.bounds();
  const double diagonal = length(box.extent());
  const double stepSize = diagonal / samplesAcross;
  const auto [lo, hi] = field.range();
  const std::vector<Camera> cameras = cameraOrbit(box, cameraCount);

  VolumeReference out;
  for (const Camera& camera : cameras) {
    Image image(width, height);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        const Ray ray = camera.pixelRay(x, y, width, height);
        double tNear, tFar;
        if (!intersectBox(ray, box, tNear, tFar)) {
          image.at(x, y) = {0, 0, 0, 0};
          continue;
        }
        tNear = std::max(tNear, 0.0);
        Color accum{0, 0, 0, 0};
        for (double t = tNear + 0.5 * stepSize; t < tFar; t += stepSize) {
          double s;
          if (!grid.sampleScalar(field, ray.origin + ray.direction * t, s)) {
            continue;
          }
          ++out.samplesTaken;
          const Color sample = colors.sampleRange(s, lo, hi);
          const double alpha =
              1.0 - std::pow(1.0 - sample.a, stepSize / (diagonal / 256.0));
          const double weight = (1.0 - accum.a) * alpha;
          accum.r += weight * sample.r;
          accum.g += weight * sample.g;
          accum.b += weight * sample.b;
          accum.a += weight;
          if (accum.a > 0.99) break;
        }
        image.at(x, y) = accum;
      }
    }
    out.images.push_back(std::move(image));
  }
  return out;
}

/// Byte-for-byte equality of two images (signed zeros differ, unlike ==).
inline bool sameImageBits(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      if (std::memcmp(&a.at(x, y), &b.at(x, y), sizeof(Color)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pviz::vis::reftest
