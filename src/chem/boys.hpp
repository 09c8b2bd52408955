#pragma once

// Boys function F_m(x) = \int_0^1 t^{2m} exp(-x t^2) dt, the radial
// kernel of all Coulomb-type Gaussian integrals.

#include <span>

namespace emc::chem {

/// Fills out[0..m_max] with F_0(x) .. F_m_max(x).
///
/// Fast path: F_{m_max} is read from a precomputed table (grid step 0.1
/// over [0, 35)) via a 7-term Taylor expansion around the nearest grid
/// point — exact to ~1e-14 because d/dx F_m = -F_{m+1}, so the expansion
/// only needs higher table columns — and lower orders follow by the
/// stable downward recursion F_m = (2x F_{m+1} + e^{-x}) / (2m + 1). For
/// large x the asymptotic closed form of F_0 plus upward recursion is
/// used (stable there because e^{-x} is negligible). Orders beyond the
/// table fall back to boys_reference. Throws std::invalid_argument if x
/// is negative or not finite.
void boys(double x, std::span<double> out);

/// Batch form of boys() for many arguments at one order: row i of `out`,
/// out[i (m_max + 1) .. i (m_max + 1) + m_max], receives F_0 .. F_m_max
/// of x[i], bitwise equal to what boys(x[i], row) writes. The Taylor and
/// recursion steps run across the batch, so the divisions of different
/// arguments overlap instead of forming one long dependency chain.
/// Throws std::invalid_argument, before writing anything, if any x[i] is
/// negative or not finite, if m_max < 0, or if out.size() is not
/// x.size() * (m_max + 1).
void boys_batch(std::span<const double> x, int m_max, std::span<double> out);

/// Single-order convenience wrapper.
double boys(int m, double x);

/// Reference evaluation (the seed implementation): ascending Kummer
/// series for F_{m_max} plus downward recursion for x below ~45, the
/// asymptotic form above. Slow but independent of the table; used to
/// build the table and as the accuracy oracle in tests. Throws
/// std::invalid_argument if x is negative or not finite.
void boys_reference(double x, std::span<double> out);

}  // namespace emc::chem
