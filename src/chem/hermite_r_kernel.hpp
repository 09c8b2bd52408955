#pragma once

// The Hermite Coulomb recursion at a compile-time order, shared by
// HermiteR (integrals.cpp) and the ERI kernel (eri.cpp). Private to
// src/chem: include it only from the chemistry sources.
//
// R^n_{tuv}(p, PC) is built level by level from n = order down to 0:
//   R^n_{000}   = (-2p)^n F_n(p |PC|^2)
//   R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + PC_x R^{n+1}_{t,u,v}
// (likewise for u and v, lowering the first nonzero index). With the
// order fixed at compile time every cube stride, loop bound and level
// parity is a constant.

#include <cstddef>
#include <utility>

#include "chem/basis.hpp"

namespace emc::chem::detail {

/// Highest R order the library evaluates: (ff|ff), four f shells.
inline constexpr int kMaxHermiteROrder = 12;

/// Doubles in one R cube of the given order.
constexpr std::size_t hermite_r_cube(int order) {
  const auto n1 = static_cast<std::size_t>(order + 1);
  return n1 * n1 * n1;
}

/// Fills level kN of the recursion: the tetrahedron t + u + v <=
/// kOrder - kN of `cur` from level kN + 1 in `next`. Each entry lowers
/// its first nonzero index by one and reads only the smaller tetrahedron
/// of `next`.
template <int kOrder, int kN>
inline void hermite_r_level(const Vec3& pc, const double* f, double* cur,
                            const double* next) {
  constexpr int kBudget = kOrder - kN;
  constexpr auto kN1 = static_cast<std::size_t>(kOrder + 1);
  constexpr std::size_t kSx = kN1 * kN1;  // stride of t
  constexpr std::size_t kSy = kN1;        // stride of u
  for (int t = 0; t <= kBudget; ++t) {
    for (int u = 0; t + u <= kBudget; ++u) {
      const std::size_t row = static_cast<std::size_t>(t) * kSx +
                              static_cast<std::size_t>(u) * kSy;
      const int vmax = kBudget - t - u;
      if (t > 0) {
        const double tm1 = static_cast<double>(t - 1);
        for (int v = 0; v <= vmax; ++v) {
          const std::size_t i = row + static_cast<std::size_t>(v);
          cur[i] = (t > 1 ? tm1 * next[i - 2 * kSx] : 0.0) +
                   pc[0] * next[i - kSx];
        }
      } else if (u > 0) {
        const double um1 = static_cast<double>(u - 1);
        for (int v = 0; v <= vmax; ++v) {
          const std::size_t i = row + static_cast<std::size_t>(v);
          cur[i] = (u > 1 ? um1 * next[i - 2 * kSy] : 0.0) +
                   pc[1] * next[i - kSy];
        }
      } else {
        cur[0] = f[kN];
        for (int v = 1; v <= vmax; ++v) {
          const auto i = static_cast<std::size_t>(v);
          cur[i] = (v > 1 ? static_cast<double>(v - 1) * next[i - 2] : 0.0) +
                   pc[2] * next[i - 1];
        }
      }
    }
  }
}

/// Evaluates R^0_{tuv}(p, PC) for t + u + v <= kOrder into `out`, laid
/// out as the cube (t (kOrder + 1) + u) (kOrder + 1) + v so that offsets
/// of index triples add. On entry f[0 .. kOrder] holds the Boys values
/// F_n(p |PC|^2); they are scaled in place to R^n_{000}. `tmp` is a
/// second cube of workspace. Levels alternate between the two buffers so
/// that level 0 lands in `out`. Only the tetrahedron is written: entries
/// outside it are never read and keep whatever they held.
template <int kOrder>
inline void hermite_r(double p, const Vec3& pc, double* f, double* out,
                      double* tmp) {
  double minus2p_pow = 1.0;
  for (int n = 0; n <= kOrder; ++n) {
    f[n] *= minus2p_pow;
    minus2p_pow *= -2.0 * p;
  }
  [&]<int... kLevel>(std::integer_sequence<int, kLevel...>) {
    // kLevel = 0, 1, ... fills n = kOrder, kOrder - 1, ..., 0 in turn.
    (((kOrder - kLevel) % 2 == 0
          ? hermite_r_level<kOrder, kOrder - kLevel>(pc, f, out, tmp)
          : hermite_r_level<kOrder, kOrder - kLevel>(pc, f, tmp, out)),
     ...);
  }(std::make_integer_sequence<int, kOrder + 1>{});
}

}  // namespace emc::chem::detail
