// Ewald / smooth Particle-Mesh-Ewald electrostatics for periodic systems.
//
// The paper computed Coulomb forces with a direct O(N²) double loop and
// noted: "A particle-mesh-Ewald method would have lower algorithmic
// complexity at O(N log N), but its use is a future work direction due to
// its implementation complexity."  This module implements that future work:
//
//   * DirectEwald — the classical Ewald sum (real-space erfc + explicit
//     k-space lattice sum), the accuracy reference;
//   * PmeSolver  — smooth PME (Essmann et al.): cardinal-B-spline charge
//     spreading onto a power-of-two grid, in-house 3-D FFT, reciprocal-space
//     convolution, analytic B-spline force interpolation, plus the same
//     real-space short-range part accelerated with periodic linked cells.
//
// Conventions: orthorhombic periodic box with edge lengths `box`; charges in
// elementary charges; distances in Å; energies in the engine's internal
// units (units::kCoulomb folds in Coulomb's constant).  Systems should be
// net neutral (a non-neutral system gets the uniform-background correction).
#pragma once

#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "md/ewald/fft.hpp"

namespace mwx::md::ewald {

struct EwaldResult {
  double energy = 0.0;
  std::vector<Vec3> forces;
};

struct EwaldParams {
  double alpha = 0.35;     // splitting parameter (1/Å)
  double r_cutoff = 9.0;   // real-space cutoff (Å); must be < min(box)/2
  int kmax = 8;            // DirectEwald: max |m| per dimension
  int grid = 32;           // PME: grid points per dimension (power of two)
  int spline_order = 4;    // PME: cardinal B-spline order (4 = cubic)
};

// Chooses reasonable parameters for a given box and accuracy-ish target.
EwaldParams suggest_params(const Vec3& box, int n_atoms);

// Classical Ewald summation (O(N^2) real part here for reference use,
// O(N * kmax^3) reciprocal part).
class DirectEwald {
 public:
  DirectEwald(Vec3 box, EwaldParams params);
  [[nodiscard]] EwaldResult compute(std::span<const Vec3> pos,
                                    std::span<const double> q) const;

 private:
  Vec3 box_;
  EwaldParams params_;
};

// Smooth particle-mesh Ewald, O(N log N).
class PmeSolver {
 public:
  PmeSolver(Vec3 box, EwaldParams params);

  [[nodiscard]] EwaldResult compute(std::span<const Vec3> pos,
                                    std::span<const double> q) const;

  [[nodiscard]] const EwaldParams& params() const { return params_; }

 private:
  void real_space(std::span<const Vec3> pos, std::span<const double> q,
                  EwaldResult& out) const;
  void reciprocal_space(std::span<const Vec3> pos, std::span<const double> q,
                        EwaldResult& out) const;

  Vec3 box_;
  EwaldParams params_;
  Fft3D fft_;
  std::vector<double> influence_;  // D(m): per-mode reciprocal factor
};

// Plain O(N^2) minimum-image Coulomb sum (no Ewald screening) — the direct
// method the paper used, for the complexity-crossover ablation.  Note this
// computes a *different* (non-converged) periodic energy; it is a timing
// baseline, not an accuracy reference.
EwaldResult direct_coulomb_minimum_image(const Vec3& box, std::span<const Vec3> pos,
                                         std::span<const double> q);

// Cardinal B-spline M_n(x) (support (0, n)) and its derivative; exposed for
// tests.
double bspline(int order, double x);
double bspline_derivative(int order, double x);

}  // namespace mwx::md::ewald
