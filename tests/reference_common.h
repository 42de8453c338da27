// Shared inputs of the serial-reference tests (clip_reference.h,
// contour_reference.h, and the threshold and external-faces references
// in their test files): the oscillating test grid and the execution
// matrix every filter result is compared on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/backend.h"
#include "util/thread_pool.h"
#include "viz/dataset/uniform_grid.h"

namespace pviz::vis::reftest {

/// `cells` cells over [0, 1]³ carrying an oscillating point field "w" in
/// [-1.5, 1.5], so cut or crossed cells show a wide mix of corner sign
/// patterns.
inline UniformGrid wavyGrid(Id3 cells) {
  UniformGrid g({cells.i + 1, cells.j + 1, cells.k + 1}, {0.0, 0.0, 0.0},
                {1.0 / static_cast<double>(cells.i),
                 1.0 / static_cast<double>(cells.j),
                 1.0 / static_cast<double>(cells.k)});
  Field w = Field::zeros("w", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 x = g.pointPosition(p);
    w.setScalar(p, std::sin(11.0 * x.x) * std::cos(7.0 * x.y) +
                       0.5 * std::sin(13.0 * x.z));
  }
  g.addField(std::move(w));
  return g;
}

/// Byte-for-byte equality of two arrays (signed zeros differ, unlike ==).
template <typename T>
bool sameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// One backend × pool-size configuration.
struct ExecConfig {
  unsigned workers;
  const exec::Backend* backend;

  std::string label() const {
    return std::string(backend->token()) + " backend, pool " +
           std::to_string(workers);
  }
};

/// Every backend × pools of 1, 2 and the hardware thread count.
inline std::vector<ExecConfig> execConfigs() {
  std::vector<ExecConfig> out;
  for (unsigned workers :
       {1u, 2u, std::max(1u, std::thread::hardware_concurrency())}) {
    for (const exec::Backend* backend :
         {&exec::serialBackend(), &exec::threadedBackend()}) {
      out.push_back({workers, backend});
    }
  }
  return out;
}

}  // namespace pviz::vis::reftest
