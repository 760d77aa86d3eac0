#include "md/ewald/pme.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/units.hpp"

namespace mwx::md::ewald {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoOverSqrtPi = 1.1283791670955126;

// Minimum-image displacement for an orthorhombic box.
Vec3 min_image(Vec3 d, const Vec3& box) {
  d.x -= box.x * std::round(d.x / box.x);
  d.y -= box.y * std::round(d.y / box.y);
  d.z -= box.z * std::round(d.z / box.z);
  return d;
}

// Self-energy and (for non-neutral systems) uniform-background correction.
double self_and_background(std::span<const double> q, double alpha, double volume) {
  double sum_q = 0.0, sum_q2 = 0.0;
  for (double qi : q) {
    sum_q += qi;
    sum_q2 += qi * qi;
  }
  double e = -units::kCoulomb * alpha / std::sqrt(kPi) * sum_q2;
  e -= units::kCoulomb * kPi / (2.0 * alpha * alpha * volume) * sum_q * sum_q;
  return e;
}

// Shared real-space pair term: returns energy, accumulates forces.
inline double real_pair(const Vec3& dr, double qq, double alpha, Vec3* f) {
  const double r2 = dr.norm2();
  const double r = std::sqrt(r2);
  const double e = units::kCoulomb * qq * std::erfc(alpha * r) / r;
  const double fscale =
      units::kCoulomb * qq *
      (std::erfc(alpha * r) / r + kTwoOverSqrtPi * alpha * std::exp(-alpha * alpha * r2)) /
      r2;
  *f = dr * fscale;
  return e;
}

}  // namespace

double bspline(int order, double x) {
  if (x <= 0.0 || x >= order) return 0.0;
  if (order == 2) return 1.0 - std::fabs(x - 1.0);
  const double n = order;
  return (x / (n - 1.0)) * bspline(order - 1, x) +
         ((n - x) / (n - 1.0)) * bspline(order - 1, x - 1.0);
}

double bspline_derivative(int order, double x) {
  return bspline(order - 1, x) - bspline(order - 1, x - 1.0);
}

EwaldParams suggest_params(const Vec3& box, int n_atoms) {
  EwaldParams p;
  const double lmin = std::min({box.x, box.y, box.z});
  p.r_cutoff = std::min(9.0, 0.45 * lmin);
  p.alpha = 3.2 / p.r_cutoff;
  const double lmax = std::max({box.x, box.y, box.z});
  p.grid = std::clamp(next_pow2(static_cast<int>(1.2 * p.alpha * lmax)), 16, 128);
  p.kmax = std::max(8, static_cast<int>(p.alpha * lmax * 1.2 / kPi) + 1);
  (void)n_atoms;
  return p;
}

// ---------------------------------------------------------------------------
// DirectEwald
// ---------------------------------------------------------------------------
DirectEwald::DirectEwald(Vec3 box, EwaldParams params) : box_(box), params_(params) {
  require(box.x > 0 && box.y > 0 && box.z > 0, "box must be positive");
  require(params.r_cutoff < 0.5 * std::min({box.x, box.y, box.z}),
          "real-space cutoff must be below half the box");
}

EwaldResult DirectEwald::compute(std::span<const Vec3> pos, std::span<const double> q) const {
  require(pos.size() == q.size(), "positions/charges size mismatch");
  const int n = static_cast<int>(pos.size());
  EwaldResult out;
  out.forces.assign(pos.size(), Vec3{});
  const double volume = box_.x * box_.y * box_.z;
  const double alpha = params_.alpha;

  // Real space (reference implementation: plain pair loop).
  const double rc2 = params_.r_cutoff * params_.r_cutoff;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Vec3 dr = min_image(pos[static_cast<std::size_t>(i)] -
                                    pos[static_cast<std::size_t>(j)],
                                box_);
      if (dr.norm2() > rc2) continue;
      Vec3 f;
      out.energy += real_pair(dr, q[static_cast<std::size_t>(i)] *
                                      q[static_cast<std::size_t>(j)],
                              alpha, &f);
      out.forces[static_cast<std::size_t>(i)] += f;
      out.forces[static_cast<std::size_t>(j)] -= f;
    }
  }

  // Reciprocal space: explicit lattice sum.
  const double kfac = 2.0 * kPi * units::kCoulomb / volume;
  for (int mx = -params_.kmax; mx <= params_.kmax; ++mx) {
    for (int my = -params_.kmax; my <= params_.kmax; ++my) {
      for (int mz = -params_.kmax; mz <= params_.kmax; ++mz) {
        if (mx == 0 && my == 0 && mz == 0) continue;
        const Vec3 k{2.0 * kPi * mx / box_.x, 2.0 * kPi * my / box_.y,
                     2.0 * kPi * mz / box_.z};
        const double k2 = k.norm2();
        const double c = kfac * std::exp(-k2 / (4.0 * alpha * alpha)) / k2;
        double re = 0.0, im = 0.0;
        for (int i = 0; i < n; ++i) {
          const double phase = dot(k, pos[static_cast<std::size_t>(i)]);
          re += q[static_cast<std::size_t>(i)] * std::cos(phase);
          im += q[static_cast<std::size_t>(i)] * std::sin(phase);
        }
        out.energy += c * (re * re + im * im);
        for (int i = 0; i < n; ++i) {
          const double phase = dot(k, pos[static_cast<std::size_t>(i)]);
          // F_i = 2 c q_i k (Re(S) sin(phase) - Im(S) cos(phase)).
          const double im_term = std::sin(phase) * re - std::cos(phase) * im;
          out.forces[static_cast<std::size_t>(i)] +=
              k * (2.0 * c * q[static_cast<std::size_t>(i)] * im_term);
        }
      }
    }
  }

  out.energy += self_and_background(q, alpha, volume);
  return out;
}

// ---------------------------------------------------------------------------
// PmeSolver
// ---------------------------------------------------------------------------
PmeSolver::PmeSolver(Vec3 box, EwaldParams params)
    : box_(box), params_(params), fft_(params.grid, params.grid, params.grid) {
  require(box.x > 0 && box.y > 0 && box.z > 0, "box must be positive");
  require(is_pow2(params.grid), "PME grid must be a power of two");
  require(params.spline_order >= 3 && params.spline_order <= 6,
          "spline order must be in [3, 6]");
  require(params.r_cutoff < 0.5 * std::min({box.x, box.y, box.z}),
          "real-space cutoff must be below half the box");

  // Precompute the influence function D(m) = (2 pi k_e / V) e^{-k^2/4a^2}/k^2
  // * |B(m)|^2, with B the Euler-spline factor of smooth PME.
  const int kk = params_.grid;
  const double volume = box_.x * box_.y * box_.z;
  const double kfac = 2.0 * kPi * units::kCoulomb / volume;
  const int p = params_.spline_order;

  // |b(m)|^2 per dimension-index (same for all dims since grid is cubic and
  // the factor depends only on m/K).
  std::vector<double> b2(static_cast<std::size_t>(kk));
  for (int m = 0; m < kk; ++m) {
    double re = 0.0, im = 0.0;
    for (int j = 0; j <= p - 2; ++j) {
      const double ang = 2.0 * kPi * m * j / kk;
      const double w = bspline(p, j + 1.0);
      re += w * std::cos(ang);
      im += w * std::sin(ang);
    }
    const double denom = re * re + im * im;
    // Odd spline orders have zeros at m = K/2; clamp to kill those modes.
    b2[static_cast<std::size_t>(m)] = denom > 1e-10 ? 1.0 / denom : 0.0;
  }

  influence_.assign(fft_.size(), 0.0);
  const double alpha = params_.alpha;
  for (int mz = 0; mz < kk; ++mz) {
    const int fz = mz <= kk / 2 ? mz : mz - kk;
    for (int my = 0; my < kk; ++my) {
      const int fy = my <= kk / 2 ? my : my - kk;
      for (int mx = 0; mx < kk; ++mx) {
        const int fx = mx <= kk / 2 ? mx : mx - kk;
        if (fx == 0 && fy == 0 && fz == 0) continue;
        const Vec3 k{2.0 * kPi * fx / box_.x, 2.0 * kPi * fy / box_.y,
                     2.0 * kPi * fz / box_.z};
        const double k2 = k.norm2();
        influence_[(static_cast<std::size_t>(mz) * kk + my) * kk + mx] =
            kfac * std::exp(-k2 / (4.0 * alpha * alpha)) / k2 *
            b2[static_cast<std::size_t>(mx)] * b2[static_cast<std::size_t>(my)] *
            b2[static_cast<std::size_t>(mz)];
      }
    }
  }
}

void PmeSolver::real_space(std::span<const Vec3> pos, std::span<const double> q,
                           EwaldResult& out) const {
  // Periodic linked cells sized >= cutoff.
  const int n = static_cast<int>(pos.size());
  const double rc = params_.r_cutoff;
  const double rc2 = rc * rc;
  const int cx = std::max(3, static_cast<int>(box_.x / rc));
  const int cy = std::max(3, static_cast<int>(box_.y / rc));
  const int cz = std::max(3, static_cast<int>(box_.z / rc));
  const int n_cells = cx * cy * cz;
  auto cell_of = [&](const Vec3& r) {
    auto wrap = [](double v, double l) {
      double f = v / l;
      f -= std::floor(f);
      return f;
    };
    const int ix = std::min(cx - 1, static_cast<int>(wrap(r.x, box_.x) * cx));
    const int iy = std::min(cy - 1, static_cast<int>(wrap(r.y, box_.y) * cy));
    const int iz = std::min(cz - 1, static_cast<int>(wrap(r.z, box_.z) * cz));
    return (iz * cy + iy) * cx + ix;
  };
  std::vector<int> head(static_cast<std::size_t>(n_cells), -1);
  std::vector<int> next(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const int c = cell_of(pos[static_cast<std::size_t>(i)]);
    next[static_cast<std::size_t>(i)] = head[static_cast<std::size_t>(c)];
    head[static_cast<std::size_t>(c)] = i;
  }

  const double alpha = params_.alpha;
  for (int iz = 0; iz < cz; ++iz) {
    for (int iy = 0; iy < cy; ++iy) {
      for (int ix = 0; ix < cx; ++ix) {
        const int c = (iz * cy + iy) * cx + ix;
        for (int i = head[static_cast<std::size_t>(c)]; i >= 0;
             i = next[static_cast<std::size_t>(i)]) {
          for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                const int jx = (ix + dx + cx) % cx;
                const int jy = (iy + dy + cy) % cy;
                const int jz = (iz + dz + cz) % cz;
                const int c2 = (jz * cy + jy) * cx + jx;
                for (int j = head[static_cast<std::size_t>(c2)]; j >= 0;
                     j = next[static_cast<std::size_t>(j)]) {
                  if (j <= i) continue;
                  const Vec3 dr = min_image(pos[static_cast<std::size_t>(i)] -
                                                pos[static_cast<std::size_t>(j)],
                                            box_);
                  if (dr.norm2() > rc2) continue;
                  Vec3 f;
                  out.energy += real_pair(
                      dr,
                      q[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(j)],
                      alpha, &f);
                  out.forces[static_cast<std::size_t>(i)] += f;
                  out.forces[static_cast<std::size_t>(j)] -= f;
                }
              }
            }
          }
        }
      }
    }
  }
}

void PmeSolver::reciprocal_space(std::span<const Vec3> pos, std::span<const double> q,
                                 EwaldResult& out) const {
  const int n = static_cast<int>(pos.size());
  const int kk = params_.grid;
  const int p = params_.spline_order;
  const std::size_t grid_n = fft_.size();

  // --- Spread charges with B-splines.
  std::vector<Complex> grid(grid_n, Complex{0.0, 0.0});
  auto frac_coord = [&](double v, double l) {
    double f = v / l;
    f -= std::floor(f);
    return f * kk;
  };
  // Each dimension's B-spline weights (and, for the forces, derivatives)
  // and wrapped grid indices are evaluated once per atom into stack arrays
  // — 3p recursive bspline() calls instead of p + p^2 + p^3 — and the p^3
  // stencil is a branch-free loop over them.  The energy and force bits are
  // pinned by the PmeVectorized tests.
  constexpr int kMaxP = 6;  // ctor enforces spline_order <= 6
  double wxs[kMaxP], wys[kMaxP], wzs[kMaxP];
  double dxs[kMaxP], dys[kMaxP], dzs[kMaxP];
  int gxs[kMaxP], gys[kMaxP], gzs[kMaxP];
  for (int i = 0; i < n; ++i) {
    const double ux = frac_coord(pos[static_cast<std::size_t>(i)].x, box_.x);
    const double uy = frac_coord(pos[static_cast<std::size_t>(i)].y, box_.y);
    const double uz = frac_coord(pos[static_cast<std::size_t>(i)].z, box_.z);
    const int bx = static_cast<int>(std::floor(ux));
    const int by = static_cast<int>(std::floor(uy));
    const int bz = static_cast<int>(std::floor(uz));
    for (int j = 0; j < p; ++j) {
      wxs[j] = bspline(p, ux - (bx - j));
      wys[j] = bspline(p, uy - (by - j));
      wzs[j] = bspline(p, uz - (bz - j));
      gxs[j] = ((bx - j) % kk + kk) % kk;
      gys[j] = ((by - j) % kk + kk) % kk;
      gzs[j] = ((bz - j) % kk + kk) % kk;
    }
    const double qi = q[static_cast<std::size_t>(i)];
    for (int jz = 0; jz < p; ++jz) {
      const double wz = wzs[jz];
      const std::size_t rz = static_cast<std::size_t>(gzs[jz]) * kk;
      for (int jy = 0; jy < p; ++jy) {
        const double wyz = wz * wys[jy];
        const std::size_t ryz = (rz + static_cast<std::size_t>(gys[jy])) * kk;
        for (int jx = 0; jx < p; ++jx) {
          const double w = wyz * wxs[jx];
          grid[ryz + static_cast<std::size_t>(gxs[jx])] += qi * w;
        }
      }
    }
  }

  // --- Convolve with the influence function.
  fft_.forward(grid);
  double e_rec = 0.0;
  for (std::size_t m = 0; m < grid_n; ++m) {
    e_rec += influence_[m] * std::norm(grid[m]);
    grid[m] *= influence_[m];
  }
  out.energy += e_rec;
  fft_.inverse(grid);
  // grid now holds phi/N_total; the force formula needs N * IFFT(D*Qhat).
  const double nfac = static_cast<double>(grid_n);

  // --- Interpolate forces: F_i = -2 q_i sum_g phi(g) grad W_i(g).
  for (int i = 0; i < n; ++i) {
    const double ux = frac_coord(pos[static_cast<std::size_t>(i)].x, box_.x);
    const double uy = frac_coord(pos[static_cast<std::size_t>(i)].y, box_.y);
    const double uz = frac_coord(pos[static_cast<std::size_t>(i)].z, box_.z);
    const int bx = static_cast<int>(std::floor(ux));
    const int by = static_cast<int>(std::floor(uy));
    const int bz = static_cast<int>(std::floor(uz));
    for (int j = 0; j < p; ++j) {
      const double xx = ux - (bx - j);
      const double xy = uy - (by - j);
      const double xz = uz - (bz - j);
      wxs[j] = bspline(p, xx);
      dxs[j] = bspline_derivative(p, xx);
      wys[j] = bspline(p, xy);
      dys[j] = bspline_derivative(p, xy);
      wzs[j] = bspline(p, xz);
      dzs[j] = bspline_derivative(p, xz);
      gxs[j] = ((bx - j) % kk + kk) % kk;
      gys[j] = ((by - j) % kk + kk) % kk;
      gzs[j] = ((bz - j) % kk + kk) % kk;
    }
    Vec3 f{};
    for (int jz = 0; jz < p; ++jz) {
      const double wz = wzs[jz];
      const double dz = dzs[jz];
      const std::size_t rz = static_cast<std::size_t>(gzs[jz]) * kk;
      for (int jy = 0; jy < p; ++jy) {
        const double wy = wys[jy];
        const double dy = dys[jy];
        const std::size_t ryz = (rz + static_cast<std::size_t>(gys[jy])) * kk;
        for (int jx = 0; jx < p; ++jx) {
          const double phi =
              nfac * grid[ryz + static_cast<std::size_t>(gxs[jx])].real();
          f.x += phi * dxs[jx] * wy * wz;
          f.y += phi * wxs[jx] * dy * wz;
          f.z += phi * wxs[jx] * wy * dz;
        }
      }
    }
    const double qi = q[static_cast<std::size_t>(i)];
    out.forces[static_cast<std::size_t>(i)] -=
        Vec3{f.x * kk / box_.x, f.y * kk / box_.y, f.z * kk / box_.z} * (2.0 * qi);
  }
}

EwaldResult PmeSolver::compute(std::span<const Vec3> pos, std::span<const double> q) const {
  require(pos.size() == q.size(), "positions/charges size mismatch");
  EwaldResult out;
  out.forces.assign(pos.size(), Vec3{});
  real_space(pos, q, out);
  reciprocal_space(pos, q, out);
  out.energy += self_and_background(q, params_.alpha, box_.x * box_.y * box_.z);
  return out;
}

// ---------------------------------------------------------------------------
EwaldResult direct_coulomb_minimum_image(const Vec3& box, std::span<const Vec3> pos,
                                         std::span<const double> q) {
  require(pos.size() == q.size(), "positions/charges size mismatch");
  const int n = static_cast<int>(pos.size());
  EwaldResult out;
  out.forces.assign(pos.size(), Vec3{});
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Vec3 dr = min_image(pos[static_cast<std::size_t>(i)] -
                                    pos[static_cast<std::size_t>(j)],
                                box);
      const double r2 = dr.norm2();
      const double r = std::sqrt(r2);
      const double e = units::kCoulomb * q[static_cast<std::size_t>(i)] *
                       q[static_cast<std::size_t>(j)] / r;
      out.energy += e;
      const Vec3 f = dr * (e / r2);
      out.forces[static_cast<std::size_t>(i)] += f;
      out.forces[static_cast<std::size_t>(j)] -= f;
    }
  }
  return out;
}

}  // namespace mwx::md::ewald
