#pragma once

// One-electron Gaussian integrals (overlap, kinetic, nuclear attraction)
// over contracted cartesian shells, via the McMurchie–Davidson scheme:
// products of Gaussians are expanded in Hermite Gaussians whose moments
// and Coulomb integrals obey simple recurrences.

#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace emc::chem {

/// Hermite expansion coefficients E_t^{ij} for the 1D product of
/// x^i exp(-a (x-A)^2) and x^j exp(-b (x-B)^2); `t` runs 0..i+j.
/// This is the workhorse recurrence shared by every integral type.
class HermiteE {
 public:
  /// Precomputes E_t^{ij} for all i <= imax, j <= jmax.
  HermiteE(int imax, int jmax, double a, double b, double ax, double bx);

  double operator()(int i, int j, int t) const {
    if (t < 0 || t > i + j) return 0.0;
    return table_[index(i, j, t)];
  }

 private:
  std::size_t index(int i, int j, int t) const {
    return (static_cast<std::size_t>(i) * static_cast<std::size_t>(jmax_ + 1) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(tmax_ + 1) +
           static_cast<std::size_t>(t);
  }

  int imax_, jmax_, tmax_;
  std::vector<double> table_;
};

/// Hermite Coulomb integrals R^0_{tuv}(p, PC) for t+u+v <= order.
/// Flat accessor: r(t, u, v).
///
/// The order is fixed at construction but the (p, PC) arguments can be
/// re-evaluated in place via `recompute`, so a caller keeps ONE instance
/// alive across a primitive loop instead of reallocating per primitive.
/// The recursion itself is the fixed-order template the ERI kernel runs
/// (hermite_r_kernel.hpp), dispatched on the order; orders 0..12 (up to
/// (ff|ff)) are supported.
class HermiteR {
 public:
  /// Allocates workspace for the given order without computing anything;
  /// call `recompute` before reading. Throws std::invalid_argument for an
  /// order outside 0..12.
  explicit HermiteR(int order);

  /// Convenience: allocate and evaluate in one step. `reference_boys`
  /// selects the slow series Boys evaluation (the seed kernel's path,
  /// kept for benchmarking old-vs-new and as a test oracle).
  HermiteR(int order, double p, const Vec3& pc, bool reference_boys = false);

  /// Re-evaluates the table for new (p, PC) at the fixed order.
  void recompute(double p, const Vec3& pc, bool reference_boys = false);

  double operator()(int t, int u, int v) const {
    return table_[index(t, u, v)];
  }

 private:
  std::size_t index(int t, int u, int v) const {
    const auto n = static_cast<std::size_t>(order_ + 1);
    return (static_cast<std::size_t>(t) * n + static_cast<std::size_t>(u)) *
               n +
           static_cast<std::size_t>(v);
  }

  int order_;
  std::vector<double> table_;    ///< result level (n = 0)
  std::vector<double> scratch_;  ///< second ping-pong buffer
  std::vector<double> fbuf_;     ///< Boys values F_0..F_order
};

/// Overlap matrix S over all basis functions.
linalg::Matrix overlap_matrix(const BasisSet& basis);

/// Kinetic-energy matrix T.
linalg::Matrix kinetic_matrix(const BasisSet& basis);

/// Nuclear-attraction matrix V (sum over all nuclei of the molecule).
linalg::Matrix nuclear_attraction_matrix(const BasisSet& basis,
                                         const Molecule& molecule);

/// Core Hamiltonian H = T + V.
linalg::Matrix core_hamiltonian(const BasisSet& basis,
                                const Molecule& molecule);

/// Shell-pair block of the overlap matrix (rows = functions of `a`,
/// cols = functions of `b`). Exposed for tests and for screening.
linalg::Matrix shell_overlap(const Shell& a, const Shell& b);

/// Electric-dipole integral matrices <mu| r - origin |nu>, one per
/// cartesian direction.
std::array<linalg::Matrix, 3> dipole_matrices(const BasisSet& basis,
                                              const Vec3& origin = {});

/// Molecular dipole moment (atomic units) for a total density P:
/// mu = sum_A Z_A (R_A - O) - sum_{mu nu} P_{mu nu} <mu|r - O|nu>.
/// Origin defaults to the coordinate origin; the value is
/// origin-independent for neutral molecules.
Vec3 dipole_moment(const linalg::Matrix& density, const BasisSet& basis,
                   const Molecule& molecule, const Vec3& origin = {});

}  // namespace emc::chem
