#include "chem/shell_pair.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "chem/constants.hpp"
#include "chem/integrals.hpp"

namespace emc::chem {

namespace {

/// 2 pi^{5/2}, the universal ERI prefactor numerator.
constexpr double kTwoPiToFiveHalves = 34.986836655249725;

}  // namespace

ShellPairData make_shell_pair(const Shell& sa, const Shell& sb) {
  for (const Shell* s : {&sa, &sb}) {
    if (s->l < 0 || s->l > kMaxPairShellL) {
      throw std::invalid_argument(
          "make_shell_pair: shell l = " + std::to_string(s->l) +
          " outside the ERI kernel's range 0.." +
          std::to_string(kMaxPairShellL) + " (f)");
    }
  }
  ShellPairData pair;
  pair.la = sa.l;
  pair.lb = sb.l;
  pair.first_a = sa.first_function;
  pair.first_b = sb.first_function;
  pair.comps_a = cartesian_components(sa.l);
  pair.comps_b = cartesian_components(sb.l);

  pair.norm_a.reserve(pair.comps_a.size());
  for (const CartesianComponent& c : pair.comps_a) {
    pair.norm_a.push_back(sa.component_norm(c.lx, c.ly, c.lz));
  }
  pair.norm_b.reserve(pair.comps_b.size());
  for (const CartesianComponent& c : pair.comps_b) {
    pair.norm_b.push_back(sb.component_norm(c.lx, c.ly, c.lz));
  }

  const double dx = sa.center[0] - sb.center[0];
  const double dy = sa.center[1] - sb.center[1];
  const double dz = sa.center[2] - sb.center[2];
  const double ab2 = dx * dx + dy * dy + dz * dz;

  // Hermite triples of the pair, then each component pair's nonzero
  // pattern as indices into them (E^{ij}_t vanishes for t > i + j).
  const int lab = sa.l + sb.l;
  const auto n1 = static_cast<std::size_t>(lab + 1);
  auto cube = [n1](int t, int u, int v) {
    return (static_cast<std::size_t>(t) * n1 + static_cast<std::size_t>(u)) *
               n1 +
           static_cast<std::size_t>(v);
  };
  std::vector<int> tuv_index(n1 * n1 * n1, -1);
  for (int t = 0; t <= lab; ++t) {
    for (int u = 0; t + u <= lab; ++u) {
      for (int v = 0; t + u + v <= lab; ++v) {
        tuv_index[cube(t, u, v)] = static_cast<int>(pair.tuv.size());
        pair.tuv.push_back(HermiteIndex{t, u, v});
      }
    }
  }
  // What each product in `e` multiplies, in term order.
  struct TermFactors {
    CartesianComponent a, b;
    HermiteIndex h;
  };
  std::vector<TermFactors> factors;
  pair.term_begin.push_back(0);
  for (const CartesianComponent& A : pair.comps_a) {
    for (const CartesianComponent& B : pair.comps_b) {
      for (int t = 0; t <= A.lx + B.lx; ++t) {
        for (int u = 0; u <= A.ly + B.ly; ++u) {
          for (int v = 0; v <= A.lz + B.lz; ++v) {
            pair.terms.push_back(tuv_index[cube(t, u, v)]);
            factors.push_back(TermFactors{A, B, HermiteIndex{t, u, v}});
          }
        }
      }
      pair.term_begin.push_back(static_cast<int>(pair.terms.size()));
    }
  }

  const std::size_t nprim = sa.exponents.size() * sb.exponents.size();
  pair.prims.reserve(nprim);
  pair.e.reserve(nprim * factors.size());
  for (std::size_t i = 0; i < sa.exponents.size(); ++i) {
    const double a = sa.exponents[i];
    for (std::size_t j = 0; j < sb.exponents.size(); ++j) {
      const double b = sb.exponents[j];
      const double p = a + b;
      const double coeff = sa.coefficients[i] * sb.coefficients[j];
      const Vec3 center{(a * sa.center[0] + b * sb.center[0]) / p,
                        (a * sa.center[1] + b * sb.center[1]) / p,
                        (a * sa.center[2] + b * sb.center[2]) / p};
      const double kab = std::exp(-a * b / p * ab2);
      // sqrt of the s-approximated primitive (ab|ab) = 2 pi^{5/2}
      // (cab Kab)^2 / (p^2 sqrt(2p)); see header.
      const double bound = std::abs(coeff) * kab *
                           std::sqrt(kTwoPiToFiveHalves /
                                     (p * p * std::sqrt(2.0 * p)));
      pair.max_bound = std::max(pair.max_bound, bound);
      pair.prims.push_back(PrimitivePairData{p, coeff / p, center, bound});

      const HermiteE ex(sa.l, sb.l, a, b, sa.center[0], sb.center[0]);
      const HermiteE ey(sa.l, sb.l, a, b, sa.center[1], sb.center[1]);
      const HermiteE ez(sa.l, sb.l, a, b, sa.center[2], sb.center[2]);
      for (const TermFactors& f : factors) {
        pair.e.push_back(ex(f.a.lx, f.b.lx, f.h.t) * ey(f.a.ly, f.b.ly, f.h.u) *
                         ez(f.a.lz, f.b.lz, f.h.v));
      }
    }
  }
  return pair;
}

ShellPairList::ShellPairList(const BasisSet& basis) : basis_(&basis) {
  const auto& shells = basis.shells();
  const std::size_t n = shells.size();
  pairs_.reserve(n * (n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      pairs_.push_back(make_shell_pair(shells[i], shells[j]));
    }
  }
}

}  // namespace emc::chem
