// Shared inputs of the serial-reference tests (clip_reference.h,
// contour_reference.h, and the threshold and external-faces references
// in their test files) and of the determinism and multi-block suites:
// the oscillating test grid and the pool widths every result is
// compared on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/exec_context.h"
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

/// The execution matrix: pools of 1, 2 and the hardware thread count.
/// Width 1 is the reference — every loop runs its chunks in order on
/// the calling thread — and every other width must match it bit for
/// bit.
inline std::vector<unsigned> poolWidths() {
  return {1u, 2u, std::max(1u, std::thread::hardware_concurrency())};
}

/// SCOPED_TRACE label of a pool width.
inline std::string poolLabel(unsigned workers) {
  return "pool " + std::to_string(workers);
}

/// Run `f(ctx)` on a fresh context over a fresh pool of `workers`
/// participants; nothing global is touched.
template <typename F>
auto withPool(unsigned workers, F&& f) {
  util::ThreadPool pool(workers);
  util::ExecutionContext ctx(pool);
  return f(ctx);
}

}  // namespace pviz::vis::reftest
