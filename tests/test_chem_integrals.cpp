// Integral engine tests: Boys function, one-electron matrices against
// Szabo & Ostlund reference values, ERI symmetries, Schwarz bounds, and
// the Hermite R table against the series Boys path and plain recursion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "chem/basis.hpp"
#include "chem/boys.hpp"
#include "chem/constants.hpp"
#include "chem/eri.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"

namespace {

using namespace emc::chem;

TEST(BoysTest, ZeroArgument) {
  // F_m(0) = 1/(2m+1).
  for (int m = 0; m <= 8; ++m) {
    EXPECT_NEAR(boys(m, 0.0), 1.0 / (2.0 * m + 1.0), 1e-14);
  }
}

TEST(BoysTest, F0ClosedForm) {
  // F_0(x) = sqrt(pi/(4x)) erf(sqrt(x)).
  for (double x : {0.1, 0.5, 1.0, 5.0, 20.0, 40.0, 100.0}) {
    const double expected =
        0.5 * std::sqrt(kPi / x) * std::erf(std::sqrt(x));
    EXPECT_NEAR(boys(0, x), expected, 1e-12) << "x=" << x;
  }
}

TEST(BoysTest, DownwardRecursionConsistency) {
  // F_{m}(x) = (2x F_{m+1}(x) + e^{-x}) / (2m+1) must hold across the
  // series/asymptotic switch.
  for (double x : {0.2, 3.0, 17.0, 34.9, 35.1, 80.0}) {
    std::vector<double> f(8);
    boys(x, f);
    for (int m = 0; m < 7; ++m) {
      const double rebuilt =
          (2.0 * x * f[static_cast<std::size_t>(m + 1)] + std::exp(-x)) /
          (2.0 * m + 1.0);
      EXPECT_NEAR(f[static_cast<std::size_t>(m)], rebuilt, 1e-10)
          << "x=" << x << " m=" << m;
    }
  }
}

TEST(BoysTest, MonotoneDecreasingInM) {
  std::vector<double> f(6);
  boys(2.5, f);
  for (std::size_t m = 1; m < f.size(); ++m) {
    EXPECT_LT(f[m], f[m - 1]);
  }
}

TEST(BoysTest, NegativeArgumentThrows) {
  std::vector<double> f(2);
  EXPECT_THROW(boys(-1.0, f), std::invalid_argument);
}

TEST(BoysTest, NonFiniteArgumentThrows) {
  // NaN fails every ordered comparison, so a `x < 0` guard alone would
  // let it through to the table index; every entry point rejects it, and
  // infinities, at every order and on the reference path too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : {nan, inf, -inf}) {
    for (std::size_t n : {1u, 5u, 25u}) {
      std::vector<double> f(n);
      EXPECT_THROW(boys(x, f), std::invalid_argument) << x << " " << n;
      EXPECT_THROW(boys_reference(x, f), std::invalid_argument) << x;
    }
    EXPECT_THROW(boys(3, x), std::invalid_argument) << x;
    const std::vector<double> xs = {0.5, x, 2.0};
    std::vector<double> out(xs.size() * 4, -1.0);
    EXPECT_THROW(boys_batch(xs, 3, out), std::invalid_argument) << x;
    // Nothing is written before the check fails.
    for (double v : out) EXPECT_EQ(v, -1.0);
  }
}

TEST(BoysTest, BatchIsBitwiseThePerArgumentPath) {
  // Arguments on the table path, on both sides of the asymptotic switch
  // and above it, batched past one internal pass, at orders inside and
  // beyond the table.
  std::vector<double> xs;
  for (int i = 0; i < 41; ++i) xs.push_back(0.917 * i);
  xs.push_back(35.0);
  xs.push_back(0.0);
  for (int m_max : {0, 1, 4, 12, 20, 23}) {
    const auto stride = static_cast<std::size_t>(m_max) + 1;
    std::vector<double> batch(xs.size() * stride);
    boys_batch(xs, m_max, batch);
    std::vector<double> one(stride);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      boys(xs[i], one);
      for (std::size_t m = 0; m < stride; ++m) {
        EXPECT_EQ(batch[i * stride + m], one[m])
            << "x=" << xs[i] << " m=" << m << " m_max=" << m_max;
      }
    }
  }
  std::vector<double> wrong(5);
  EXPECT_THROW(boys_batch(xs, 1, wrong), std::invalid_argument);
  EXPECT_THROW(boys_batch({}, -1, {}), std::invalid_argument);
  boys_batch({}, 3, {});  // an empty batch is a no-op
}

class H2ReferenceTest : public ::testing::Test {
 protected:
  H2ReferenceTest()
      : mol(make_h2(1.4)), basis(BasisSet::build(mol, "sto-3g")) {}
  Molecule mol;
  BasisSet basis;
};

// Reference values: Szabo & Ostlund, "Modern Quantum Chemistry",
// Sec. 3.5.2 (H2, STO-3G, R = 1.4 a0).
TEST_F(H2ReferenceTest, Overlap) {
  const auto s = overlap_matrix(basis);
  EXPECT_NEAR(s(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(s(1, 1), 1.0, 1e-10);
  EXPECT_NEAR(s(0, 1), 0.6593, 1e-4);
}

TEST_F(H2ReferenceTest, Kinetic) {
  const auto t = kinetic_matrix(basis);
  EXPECT_NEAR(t(0, 0), 0.7600, 1e-4);
  EXPECT_NEAR(t(0, 1), 0.2365, 1e-4);
}

TEST_F(H2ReferenceTest, NuclearAttraction) {
  const auto v = nuclear_attraction_matrix(basis, mol);
  // Sum over both nuclei: V11 = -1.2266 - 0.6538 = -1.8804.
  EXPECT_NEAR(v(0, 0), -1.8804, 1e-4);
  EXPECT_NEAR(v(0, 1), -1.1948, 2e-4);
}

TEST_F(H2ReferenceTest, CoreHamiltonian) {
  const auto h = core_hamiltonian(basis, mol);
  EXPECT_NEAR(h(0, 0), -1.1204, 2e-4);
  EXPECT_NEAR(h(0, 1), -0.9584, 2e-4);
}

TEST_F(H2ReferenceTest, TwoElectronIntegrals) {
  const auto g = full_eri_tensor(basis);
  const auto idx = [](int i, int j, int k, int l) {
    return static_cast<std::size_t>(((i * 2 + j) * 2 + k) * 2 + l);
  };
  EXPECT_NEAR(g[idx(0, 0, 0, 0)], 0.7746, 1e-4);
  EXPECT_NEAR(g[idx(0, 0, 1, 1)], 0.5697, 1e-4);
  EXPECT_NEAR(g[idx(1, 0, 0, 0)], 0.4441, 1e-4);
  EXPECT_NEAR(g[idx(1, 0, 1, 0)], 0.2970, 1e-4);
}

TEST(IntegralSymmetryTest, MatricesAreSymmetric) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "6-31g");
  EXPECT_TRUE(overlap_matrix(bs).is_symmetric(1e-12));
  EXPECT_TRUE(kinetic_matrix(bs).is_symmetric(1e-12));
  EXPECT_TRUE(nuclear_attraction_matrix(bs, water).is_symmetric(1e-12));
}

TEST(IntegralSymmetryTest, OverlapDiagonalIsOne) {
  // Per-component contracted normalization must hold for s AND p shells.
  const BasisSet bs = BasisSet::build(make_water(), "6-31g");
  const auto s = overlap_matrix(bs);
  for (int i = 0; i < bs.function_count(); ++i) {
    EXPECT_NEAR(s(static_cast<std::size_t>(i), static_cast<std::size_t>(i)),
                1.0, 1e-10)
        << "function " << i;
  }
}

TEST(IntegralSymmetryTest, KineticDiagonalPositive) {
  const BasisSet bs = BasisSet::build(make_water(), "sto-3g");
  const auto t = kinetic_matrix(bs);
  for (int i = 0; i < bs.function_count(); ++i) {
    EXPECT_GT(t(static_cast<std::size_t>(i), static_cast<std::size_t>(i)),
              0.0);
  }
}

TEST(IntegralSymmetryTest, NuclearAttractionDiagonalNegative) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto v = nuclear_attraction_matrix(bs, water);
  for (int i = 0; i < bs.function_count(); ++i) {
    EXPECT_LT(v(static_cast<std::size_t>(i), static_cast<std::size_t>(i)),
              0.0);
  }
}

TEST(EriSymmetryTest, EightFoldSymmetry) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto g = full_eri_tensor(bs);
  const int n = bs.function_count();
  const auto idx = [n](int i, int j, int k, int l) {
    return static_cast<std::size_t>(((i * n + j) * n + k) * n + l);
  };
  // Spot-check the full orbit on a grid of index quadruples.
  for (int i = 0; i < n; i += 2) {
    for (int j = 0; j <= i; j += 2) {
      for (int k = 0; k < n; k += 3) {
        for (int l = 0; l <= k; l += 2) {
          const double ref = g[idx(i, j, k, l)];
          EXPECT_NEAR(g[idx(j, i, k, l)], ref, 1e-11);
          EXPECT_NEAR(g[idx(i, j, l, k)], ref, 1e-11);
          EXPECT_NEAR(g[idx(k, l, i, j)], ref, 1e-11);
          EXPECT_NEAR(g[idx(l, k, j, i)], ref, 1e-11);
        }
      }
    }
  }
}

TEST(EriSymmetryTest, DiagonalElementsNonNegative) {
  // (ij|ij) >= 0 (it is a squared norm in the Coulomb metric).
  const BasisSet bs = BasisSet::build(make_water(), "sto-3g");
  const auto g = full_eri_tensor(bs);
  const int n = bs.function_count();
  const auto idx = [n](int i, int j, int k, int l) {
    return static_cast<std::size_t>(((i * n + j) * n + k) * n + l);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(g[idx(i, j, i, j)], -1e-12);
    }
  }
}

TEST(SchwarzTest, BoundsEveryQuartet) {
  // |(ab|cd)| <= Q(a,b) Q(c,d) must hold for all shell quartets.
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto q = schwarz_matrix(bs);
  const auto& shells = bs.shells();
  const auto ns = shells.size();

  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      for (std::size_t c = 0; c < ns; ++c) {
        for (std::size_t d = 0; d < ns; ++d) {
          const EriBlock block =
              eri_shell_quartet(shells[a], shells[b], shells[c], shells[d]);
          EXPECT_LE(block.max_abs(), q(a, b) * q(c, d) + 1e-10)
              << a << " " << b << " " << c << " " << d;
        }
      }
    }
  }
}

TEST(SchwarzTest, MatrixSymmetricPositive) {
  const BasisSet bs = BasisSet::build(make_water(), "sto-3g");
  const auto q = schwarz_matrix(bs);
  EXPECT_TRUE(q.is_symmetric(1e-12));
  for (std::size_t i = 0; i < q.rows(); ++i) {
    EXPECT_GT(q(i, i), 0.0);
  }
}

TEST(HermiteETest, SShellIsGaussianProduct) {
  // For two s primitives, E_0^{00} = exp(-mu Q^2).
  const double a = 0.7, b = 1.3, ax = 0.0, bx = 1.1;
  const HermiteE e(0, 0, a, b, ax, bx);
  const double mu = a * b / (a + b);
  EXPECT_NEAR(e(0, 0, 0), std::exp(-mu * (ax - bx) * (ax - bx)), 1e-14);
}

TEST(HermiteETest, OutOfRangeTIsZero) {
  const HermiteE e(1, 1, 0.5, 0.5, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(e(1, 1, 3), 0.0);
  EXPECT_DOUBLE_EQ(e(0, 0, -1), 0.0);
}

/// Independent R^n_{tuv} by the plain recursion on the first nonzero index,
/// from the series Boys values F (R^n_{000} = (-2p)^n F_n).
double naive_r(int n, int t, int u, int v, double p, const Vec3& pc,
               const std::vector<double>& f) {
  if (t < 0 || u < 0 || v < 0) return 0.0;
  if (t > 0) {
    return (t - 1) * naive_r(n + 1, t - 2, u, v, p, pc, f) +
           pc[0] * naive_r(n + 1, t - 1, u, v, p, pc, f);
  }
  if (u > 0) {
    return (u - 1) * naive_r(n + 1, t, u - 2, v, p, pc, f) +
           pc[1] * naive_r(n + 1, t, u - 1, v, p, pc, f);
  }
  if (v > 0) {
    return (v - 1) * naive_r(n + 1, t, u, v - 2, p, pc, f) +
           pc[2] * naive_r(n + 1, t, u, v - 1, p, pc, f);
  }
  return std::pow(-2.0 * p, n) * f[static_cast<std::size_t>(n)];
}

/// naive_r run on absolute values: the size of the terms the recursion
/// adds up to reach R^n_{tuv}, which bounds its rounding error.
double naive_r_abs(int n, int t, int u, int v, double p, const Vec3& pc,
                   const std::vector<double>& f) {
  if (t < 0 || u < 0 || v < 0) return 0.0;
  if (t > 0) {
    return (t - 1) * naive_r_abs(n + 1, t - 2, u, v, p, pc, f) +
           std::abs(pc[0]) * naive_r_abs(n + 1, t - 1, u, v, p, pc, f);
  }
  if (u > 0) {
    return (u - 1) * naive_r_abs(n + 1, t, u - 2, v, p, pc, f) +
           std::abs(pc[1]) * naive_r_abs(n + 1, t, u - 1, v, p, pc, f);
  }
  if (v > 0) {
    return (v - 1) * naive_r_abs(n + 1, t, u, v - 2, p, pc, f) +
           std::abs(pc[2]) * naive_r_abs(n + 1, t, u, v - 1, p, pc, f);
  }
  return std::pow(2.0 * p, n) * f[static_cast<std::size_t>(n)];
}

TEST(HermiteRTest, TabulatedBoysPathMatchesReferenceAndRecursion) {
  // Every entry the kernels read (t + u + v <= order) at orders 0..12
  // (up to (ff|ff)): the tabulated-Boys table against the reference_boys
  // table, and both against the plain recursion. One workspace is reused
  // across orders' arguments, as the ERI kernel does. Up to order 8 the
  // tolerance is relative to the entry itself. Beyond it, at the larger
  // |PC|, the recursion's terms cancel by a few digits: the three
  // evaluations agree to ~5e-16 of the terms' size but only to ~1e-13 of
  // some entries, so the tolerance is relative to the terms' size.
  const double p = 0.45;
  const std::vector<Vec3> pcs = {
      {0.0, 0.0, 0.0}, {0.3, -0.7, 1.1}, {-1.9, 0.4, 2.6}, {4.0, 3.5, -2.0}};
  for (int order = 0; order <= 12; ++order) {
    HermiteR fast(order);
    for (const Vec3& pc : pcs) {
      fast.recompute(p, pc);
      const HermiteR ref(order, p, pc, /*reference_boys=*/true);
      std::vector<double> f(static_cast<std::size_t>(order) + 1);
      boys_reference(p * (pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2]), f);
      for (int t = 0; t <= order; ++t) {
        for (int u = 0; t + u <= order; ++u) {
          for (int v = 0; t + u + v <= order; ++v) {
            const double scale = std::max(
                1.0, order <= 8 ? std::abs(ref(t, u, v))
                                : naive_r_abs(0, t, u, v, p, pc, f));
            EXPECT_NEAR(fast(t, u, v), ref(t, u, v), 1e-14 * scale)
                << "order " << order << " tuv " << t << u << v;
            EXPECT_NEAR(ref(t, u, v), naive_r(0, t, u, v, p, pc, f),
                        1e-14 * scale)
                << "order " << order << " tuv " << t << u << v;
          }
        }
      }
    }
  }
}

TEST(HermiteRTest, OrdersBeyondFFFFAreRejected) {
  // The recursion is instantiated for orders 0..12 only.
  EXPECT_THROW(HermiteR(13), std::invalid_argument);
  EXPECT_THROW(HermiteR(-1), std::invalid_argument);
  EXPECT_NO_THROW(HermiteR(12));
}

TEST(HermiteRTest, NuclearAttractionUnchangedOnWater631GStar) {
  // Recorded diagonal and row sums of V for water/6-31G* (19 cartesian
  // functions, s/p/d shells), from the full-cube R recurrence this table
  // replaced; every value must stay within 1e-14 (relative).
  const std::vector<double> diag = {
    -62.586878244110792, -11.636477170916899, -12.791390797434506,
    -12.683393468358096, -12.74809267774423, -7.6727503109306552,
    -5.471743688987857, -5.2476754721116441, -5.3819106111139741,
    -7.3221890157776901, -7.1209541244871151, -7.3550187622368872,
    -7.0144546824942839, -7.0782565353357159, -7.1760588203040676,
    -6.414358270006594, -4.7586687581981257, -6.414358270006594,
    -4.7586687581981248};
  const std::vector<double> row_sums = {
    -81.911817034145386, -51.992337460302579, -17.370276775560438,
    -17.066299837683257, -22.655192907040039, -51.976337397764766,
    -10.14106494194737, -9.6503201857637997, -18.146457622423856,
    -35.275569931629612, -7.1209541244871151, -7.862740595995418,
    -30.239040858423177, -7.319934695618894, -33.648828643718822,
    -36.016783690664553, -37.902681975695927, -21.797747905002787,
    -31.410614139960785};
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "6-31g*");
  const auto v = nuclear_attraction_matrix(basis, mol);
  ASSERT_EQ(v.rows(), diag.size());
  for (std::size_t i = 0; i < v.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < v.cols(); ++j) sum += v(i, j);
    EXPECT_NEAR(v(i, i), diag[i], 1e-14 * std::abs(diag[i])) << "row " << i;
    EXPECT_NEAR(sum, row_sums[i], 1e-14 * std::abs(row_sums[i]))
        << "row " << i;
  }
}

TEST(ShellOverlapTest, MatchesAssembledMatrix) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto s = overlap_matrix(bs);
  for (const Shell& sa : bs.shells()) {
    for (const Shell& sb : bs.shells()) {
      const auto block = shell_overlap(sa, sb);
      for (int fa = 0; fa < sa.function_count(); ++fa) {
        for (int fb = 0; fb < sb.function_count(); ++fb) {
          EXPECT_NEAR(block(static_cast<std::size_t>(fa),
                            static_cast<std::size_t>(fb)),
                      s(static_cast<std::size_t>(sa.first_function + fa),
                        static_cast<std::size_t>(sb.first_function + fb)),
                      1e-12);
        }
      }
    }
  }
}

}  // namespace
