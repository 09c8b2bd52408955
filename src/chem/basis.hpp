#pragma once

// Gaussian basis sets: contracted cartesian shells, with STO-3G and 6-31G
// parameter tables embedded for H, C, N, O.
//
// A Shell is a contraction of primitive Gaussians sharing a center and a
// total angular momentum l. Shells expand into (l+1)(l+2)/2 cartesian
// basis functions ordered lexicographically by (lx descending, then ly
// descending), e.g. p -> x, y, z; d -> xx, xy, xz, yy, yz, zz.
//
// Contraction coefficients stored here are "effective": the tabulated
// coefficient times the primitive normalization constant for the shell's
// (l,0,0) component. A per-cartesian-component normalization constant is
// exposed via `component_norm`, chosen so that every contracted basis
// function has unit self-overlap.

#include <string>
#include <vector>

#include "chem/molecule.hpp"

namespace emc::chem {

/// Exponents of the cartesian monomial x^lx y^ly z^lz.
struct CartesianComponent {
  int lx = 0, ly = 0, lz = 0;
  int total() const { return lx + ly + lz; }
};

/// All cartesian components of total angular momentum l, in canonical
/// order (lx descending, then ly descending).
std::vector<CartesianComponent> cartesian_components(int l);

/// Number of cartesian components for angular momentum l.
constexpr int cartesian_count(int l) { return (l + 1) * (l + 2) / 2; }

/// Normalization constant of the primitive cartesian Gaussian
/// x^lx y^ly z^lz exp(-a r^2).
double primitive_norm(double exponent, int lx, int ly, int lz);

struct Shell {
  Vec3 center{};
  int l = 0;                        ///< total angular momentum
  int atom_index = -1;              ///< owning atom in the molecule
  std::vector<double> exponents;
  std::vector<double> coefficients; ///< effective (see file comment)
  int first_function = 0;           ///< index of first basis fn of shell

  int function_count() const { return cartesian_count(l); }

  /// Contracted normalization for the shell's component with the given
  /// cartesian exponents (component sum must equal l).
  double component_norm(int lx, int ly, int lz) const;
};

class BasisSet {
 public:
  /// Builds the named basis ("sto-3g", "6-31g", or "6-31g*") over the
  /// molecule. Throws std::invalid_argument for unknown basis names or
  /// elements without parameters in the table.
  static BasisSet build(const Molecule& molecule, const std::string& name);

  const std::vector<Shell>& shells() const { return shells_; }
  std::size_t shell_count() const { return shells_.size(); }
  /// Total number of basis functions.
  int function_count() const { return n_functions_; }
  const std::string& name() const { return name_; }

 private:
  std::vector<Shell> shells_;
  int n_functions_ = 0;
  std::string name_;
};

}  // namespace emc::chem
