#include "md/morton.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/require.hpp"
#include "parallel/chunked.hpp"

namespace mwx::md {

namespace {

// Spreads the low 21 bits of v so consecutive input bits land three apart
// (the classic magic-mask dilation).
std::uint64_t spread3(std::uint32_t v) {
  std::uint64_t x = v & 0x1fffff;  // 21 bits per axis -> 63-bit key
  x = (x | (x << 32)) & 0x001f00000000ffffull;
  x = (x | (x << 16)) & 0x001f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

int axis_cells(double extent, double cell_width) {
  return std::max(1, static_cast<int>(std::floor(extent / cell_width)));
}

int quantize(double v, double lo, double inv_w, int n) {
  int c = static_cast<int>((v - lo) * inv_w);
  if (c < 0) c = 0;
  if (c >= n) c = n - 1;
  return c;
}

}  // namespace

std::uint64_t morton3(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return spread3(x) | (spread3(y) << 1) | (spread3(z) << 2);
}

std::vector<int> morton_order(std::span<const Vec3> positions, const Vec3& lo,
                              const Vec3& hi, double cell_width,
                              parallel::FixedThreadPool* pool, int n_chunks) {
  require(cell_width > 0.0, "cell width must be positive");
  const Vec3 ext = hi - lo;
  const int nx = axis_cells(ext.x, cell_width);
  const int ny = axis_cells(ext.y, cell_width);
  const int nz = axis_cells(ext.z, cell_width);
  const double inv_wx = static_cast<double>(nx) / ext.x;
  const double inv_wy = static_cast<double>(ny) / ext.y;
  const double inv_wz = static_cast<double>(nz) / ext.z;

  const int n = static_cast<int>(positions.size());
  const int chunks = pool == nullptr ? 1 : std::clamp(n_chunks, 1, std::max(1, n));

  std::vector<std::uint64_t> key(static_cast<std::size_t>(n));
  parallel::for_chunks(pool, chunks, n,
                       [&](int, long long b, long long e) {
    for (long long i = b; i < e; ++i) {
      const Vec3& p = positions[static_cast<std::size_t>(i)];
      key[static_cast<std::size_t>(i)] =
          morton3(static_cast<std::uint32_t>(quantize(p.x, lo.x, inv_wx, nx)),
                  static_cast<std::uint32_t>(quantize(p.y, lo.y, inv_wy, ny)),
                  static_cast<std::uint32_t>(quantize(p.z, lo.z, inv_wz, nz)));
    }
  });

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  // Stable LSD radix over 8-bit digits.  Each pass is a stable partition by
  // one digit (per-chunk histograms; digit-major chunk-minor exclusive scan;
  // per-chunk in-order scatter), so after the last pass the permutation is
  // THE stable sort by key — there is only one — independent of the chunk
  // count.  Stability also makes the pass idempotent on an already-ordered
  // system.  The pass count comes from the largest representable key for
  // this cell geometry (not from the data), keeping it data-independent.
  const std::uint64_t max_key =
      morton3(static_cast<std::uint32_t>(nx - 1), static_cast<std::uint32_t>(ny - 1),
              static_cast<std::uint32_t>(nz - 1));
  int passes = 1;
  while ((max_key >> (8 * passes)) != 0) ++passes;

  std::vector<int> alt(static_cast<std::size_t>(n));
  std::vector<int>* src = &order;
  std::vector<int>* dst = &alt;
  std::vector<std::size_t> hist(static_cast<std::size_t>(chunks) * 256);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = 8 * pass;
    std::fill(hist.begin(), hist.end(), 0);
    parallel::for_chunks(pool, chunks, n, [&](int k, long long b, long long e) {
      std::size_t* h = hist.data() + static_cast<std::size_t>(k) * 256;
      for (long long i = b; i < e; ++i) {
        ++h[(key[static_cast<std::size_t>((*src)[static_cast<std::size_t>(i)])] >> shift) &
            255];
      }
    });
    std::size_t run = 0;  // O(256 * chunks) serial residue
    for (int d = 0; d < 256; ++d) {
      for (int k = 0; k < chunks; ++k) {
        std::size_t& h = hist[static_cast<std::size_t>(k) * 256 + static_cast<std::size_t>(d)];
        const std::size_t count = h;
        h = run;
        run += count;
      }
    }
    parallel::for_chunks(pool, chunks, n, [&](int k, long long b, long long e) {
      std::size_t* h = hist.data() + static_cast<std::size_t>(k) * 256;
      for (long long i = b; i < e; ++i) {
        const int a = (*src)[static_cast<std::size_t>(i)];
        (*dst)[h[(key[static_cast<std::size_t>(a)] >> shift) & 255]++] = a;
      }
    });
    std::swap(src, dst);
  }
  if (src != &order) order = std::move(alt);
  return order;
}

std::vector<int> invert_permutation(const std::vector<int>& new_order) {
  const int n = static_cast<int>(new_order.size());
  std::vector<int> inverse(static_cast<std::size_t>(n), -1);
  for (int k = 0; k < n; ++k) {
    const int old = new_order[static_cast<std::size_t>(k)];
    require(old >= 0 && old < n, "permutation entry out of range");
    require(inverse[static_cast<std::size_t>(old)] == -1, "permutation entry repeated");
    inverse[static_cast<std::size_t>(old)] = k;
  }
  return inverse;
}

}  // namespace mwx::md
