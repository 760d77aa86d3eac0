// Precomputed Lennard-Jones pair parameters (Lorentz–Berthelot mixing) with
// a cutoff-shifted potential so energy is continuous at the cutoff.
#pragma once

#include <vector>

#include "md/system.hpp"

namespace mwx::md {

class LjTable {
 public:
  LjTable(const MolecularSystem& sys, double cutoff) : n_types_(sys.types().n()),
                                                       cutoff2_(cutoff * cutoff) {
    eps_.resize(static_cast<std::size_t>(n_types_ * n_types_));
    sigma2_.resize(eps_.size());
    shift_.resize(eps_.size());
    for (int a = 0; a < n_types_; ++a) {
      for (int b = 0; b < n_types_; ++b) {
        const double eps = sys.lj_epsilon(a, b);
        const double sig = sys.lj_sigma(a, b);
        const std::size_t k = static_cast<std::size_t>(a * n_types_ + b);
        eps_[k] = eps;
        sigma2_[k] = sig * sig;
        // V(rc): subtracted from every pair energy.
        const double sr2 = sig * sig / cutoff2_;
        const double sr6 = sr2 * sr2 * sr2;
        shift_[k] = 4.0 * eps * (sr6 * sr6 - sr6);
      }
    }
  }

  [[nodiscard]] double cutoff2() const { return cutoff2_; }
  [[nodiscard]] int n_types() const { return n_types_; }

  // Row `ta` of each table, indexed by the partner's type (vector kernels
  // load per-lane constants from these).
  [[nodiscard]] const double* epsilon_row(int ta) const {
    return eps_.data() + static_cast<std::size_t>(ta * n_types_);
  }
  [[nodiscard]] const double* sigma2_row(int ta) const {
    return sigma2_.data() + static_cast<std::size_t>(ta * n_types_);
  }
  [[nodiscard]] const double* shift_row(int ta) const {
    return shift_.data() + static_cast<std::size_t>(ta * n_types_);
  }

  [[nodiscard]] double epsilon(int ta, int tb) const {
    return eps_[static_cast<std::size_t>(ta * n_types_ + tb)];
  }
  [[nodiscard]] double sigma2(int ta, int tb) const {
    return sigma2_[static_cast<std::size_t>(ta * n_types_ + tb)];
  }
  [[nodiscard]] double shift(int ta, int tb) const {
    return shift_[static_cast<std::size_t>(ta * n_types_ + tb)];
  }

 private:
  int n_types_;
  double cutoff2_;
  std::vector<double> eps_, sigma2_, shift_;
};

}  // namespace mwx::md
