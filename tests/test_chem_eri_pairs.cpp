// Shell-pair-cached ERI engine tests: the cached kernel must reproduce
// the direct (seed) kernel to near machine precision on randomized
// quartets (s through f, both angular orders, coincident centers, deep
// contractions), the flat pair layout must have the documented sizes,
// the tabulated Boys function must match the series reference, and the
// canonical-quartet full_eri_tensor must be bitwise 8-fold
// symmetric while agreeing with the legacy all-quartets fill.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chem/basis.hpp"
#include "chem/boys.hpp"
#include "chem/eri.hpp"
#include "chem/molecule.hpp"
#include "chem/shell_pair.hpp"
#include "util/rng.hpp"

// This test binary replaces global operator new to count the heap
// allocations made on a thread while g_counting is set (see
// KernelAllocatesOnlyTheReturnedBlock).
namespace {
std::atomic<long> g_allocations{0};
thread_local bool g_counting = false;

// Out of line so that gcc does not see free() applied to the pointer
// operator delete receives, which -Wmismatched-new-delete flags.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace emc::chem;

Shell random_shell(emc::Rng& rng, int l, int nprim = 0) {
  Shell s;
  s.l = l;
  s.center = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
              rng.uniform(-2.0, 2.0)};
  if (nprim == 0) nprim = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < nprim; ++i) {
    // Log-uniform exponents across the chemically relevant range, and
    // signed coefficients so cancellation paths are exercised.
    const double a = std::exp(rng.uniform(std::log(0.1), std::log(60.0)));
    const double c =
        rng.uniform(0.2, 1.2) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    s.exponents.push_back(a);
    s.coefficients.push_back(c * primitive_norm(a, l, 0, 0));
  }
  return s;
}

double max_block_diff(const EriBlock& x, const EriBlock& y) {
  double m = 0.0;
  for (int a = 0; a < x.na(); ++a) {
    for (int b = 0; b < x.nb(); ++b) {
      for (int c = 0; c < x.nc(); ++c) {
        for (int d = 0; d < x.nd(); ++d) {
          m = std::max(m, std::abs(x(a, b, c, d) - y(a, b, c, d)));
        }
      }
    }
  }
  return m;
}

TEST(ShellPairEriTest, CachedMatchesDirectOnRandomQuartets) {
  emc::Rng rng(20260806);
  for (int trial = 0; trial < 60; ++trial) {
    const Shell a = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const Shell b = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const Shell c = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const Shell d = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const EriBlock direct = eri_shell_quartet_direct(a, b, c, d);
    const EriBlock cached = eri_shell_quartet(a, b, c, d);
    EXPECT_LT(max_block_diff(direct, cached), 1e-12) << "trial " << trial;
  }
}

TEST(ShellPairEriTest, CachedMatchesDirectUpToFShells) {
  // Angular momenta up to f (order 12 R tables for (ff|ff)); contraction
  // kept to 1-2 primitives so the direct oracle stays fast.
  emc::Rng rng(20261017);
  for (int trial = 0; trial < 24; ++trial) {
    auto draw = [&rng] {
      return random_shell(rng, static_cast<int>(rng.range(0, 3)),
                          static_cast<int>(rng.range(1, 2)));
    };
    const Shell a = draw(), b = draw(), c = draw(), d = draw();
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, c, d),
                             eri_shell_quartet(a, b, c, d)),
              1e-12)
        << "trial " << trial << " l " << a.l << b.l << c.l << d.l;
  }
}

TEST(ShellPairEriTest, BraAndKetInBothAngularOrders) {
  // Every combination of la < lb and la > lb on the bra and on the ket:
  // the pair layout must not assume the higher shell comes first.
  emc::Rng rng(31);
  const int ls[][2] = {{0, 2}, {2, 0}, {1, 3}, {3, 1}, {0, 1}, {1, 2}};
  for (const auto& bl : ls) {
    for (const auto& kl : ls) {
      const Shell a = random_shell(rng, bl[0], 2);
      const Shell b = random_shell(rng, bl[1], 1);
      const Shell c = random_shell(rng, kl[0], 1);
      const Shell d = random_shell(rng, kl[1], 2);
      EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, c, d),
                               eri_shell_quartet(a, b, c, d)),
                1e-12)
          << "(" << bl[0] << bl[1] << "|" << kl[0] << kl[1] << ")";
    }
  }
}

TEST(ShellPairEriTest, CoincidentCentersEvaluateRAtPcZero) {
  // A = B and C = D on one point, so P = Q and every R table is taken at
  // PC = 0, where all odd-index entries vanish and many E products are 0.
  emc::Rng rng(5);
  for (int la = 0; la <= 3; ++la) {
    for (int lb = 0; lb <= 2; ++lb) {
      Shell a = random_shell(rng, la, 2);
      Shell b = random_shell(rng, lb, 3);
      Shell c = random_shell(rng, lb, 1);
      Shell d = random_shell(rng, 1, 2);
      b.center = c.center = d.center = a.center;
      EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, c, d),
                               eri_shell_quartet(a, b, c, d)),
                1e-12)
          << "(" << la << lb << "|" << lb << "1)";
    }
  }
}

TEST(ShellPairEriTest, SixPrimitiveShell) {
  // A 6-primitive contraction (STO-6G depth) on bra and ket: 36 x 36
  // primitive quartets through one pair of intermediates.
  emc::Rng rng(66);
  for (int l = 0; l <= 2; ++l) {
    const Shell deep = random_shell(rng, l, 6);
    const Shell b = random_shell(rng, 1, 2);
    const Shell c = random_shell(rng, 0, 3);
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(deep, b, c, deep),
                             eri_shell_quartet(deep, b, c, deep)),
              1e-12)
        << "l " << l;
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(deep, deep, deep, deep),
                             eri_shell_quartet(deep, deep, deep, deep)),
              1e-12)
        << "l " << l;
  }
}

TEST(ShellPairEriTest, EveryBraKetAngularMomentumInstantiation) {
  // The kernel is compiled once per (bra L, ket L) = (la + lb, lc + ld)
  // in 0..6 x 0..6. One deterministic quartet per pair of totals, in
  // four variants: bra and ket each with the higher shell first or
  // second, and all four centres coincident (PC = 0). Two primitives per
  // shell, so both sides have four primitive pairs.
  emc::Rng rng(14);
  auto split = [](int total, bool high_first) {
    const int hi = std::min(total, 3);
    return high_first ? std::pair{hi, total - hi} : std::pair{total - hi, hi};
  };
  for (int bra_l = 0; bra_l <= 6; ++bra_l) {
    for (int ket_l = 0; ket_l <= 6; ++ket_l) {
      for (int variant = 0; variant < 3; ++variant) {
        const auto [la, lb] = split(bra_l, variant != 1);
        const auto [lc, ld] = split(ket_l, variant == 1);
        Shell a = random_shell(rng, la, 2), b = random_shell(rng, lb, 2);
        Shell c = random_shell(rng, lc, 2), d = random_shell(rng, ld, 2);
        if (variant == 2) b.center = c.center = d.center = a.center;
        EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, c, d),
                                 eri_shell_quartet(a, b, c, d)),
                  1e-12)
            << "(" << la << lb << "|" << lc << ld << ") variant " << variant;
      }
    }
  }
}

TEST(ShellPairEriTest, KernelAllocatesOnlyTheReturnedBlock) {
  // The kernel's scratch (R tables, Y, ket offsets, Boys batch) is on the
  // stack: one quartet, from (ss|ss) to (ff|ff) and with more surviving
  // primitive quartets than one Boys batch holds, makes exactly one heap
  // allocation, the returned block's storage.
  emc::Rng rng(8);
  for (int l = 0; l <= 3; ++l) {
    const Shell a = random_shell(rng, l, 5), b = random_shell(rng, l, 2);
    const ShellPairData ab = make_shell_pair(a, b);
    eri_shell_quartet(ab, ab);  // warm-up: the Boys table is built once
    g_allocations = 0;
    g_counting = true;
    const EriBlock block = eri_shell_quartet(ab, ab);
    g_counting = false;
    EXPECT_EQ(g_allocations.load(), 1) << "l " << l;
    EXPECT_GT(kept_primitive_quartets(ab, ab), 16u) << "l " << l;
    EXPECT_GT(block.max_abs(), 0.0);
  }
}

TEST(ShellPairEriTest, ShellsBeyondFAreRejected) {
  emc::Rng rng(4);
  const Shell f = random_shell(rng, 3);
  const Shell g = random_shell(rng, 4);
  EXPECT_NO_THROW(make_shell_pair(f, f));
  for (const auto& [a, b] : {std::pair{&g, &f}, std::pair{&f, &g}}) {
    try {
      make_shell_pair(*a, *b);
      ADD_FAILURE() << "l = 4 accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("l = 4"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShellPairEriTest, KeptPrimitiveQuartetsFollowThePruneBound) {
  // A primitive whose contraction coefficient is negligible drops out of
  // every primitive quartet it takes part in; the rest are kept.
  // Both shells on one centre, so no Gaussian-product prefactor prunes.
  emc::Rng rng(21);
  Shell a = random_shell(rng, 1, 3);
  Shell b = random_shell(rng, 0, 2);
  b.center = a.center;
  const ShellPairData ab = make_shell_pair(a, b);
  EXPECT_EQ(kept_primitive_quartets(ab, ab), 36u);
  a.coefficients[1] *= 1e-30;
  const ShellPairData ab_small = make_shell_pair(a, b);
  EXPECT_EQ(kept_primitive_quartets(ab_small, ab), 24u);
  EXPECT_EQ(kept_primitive_quartets(ab_small, ab_small), 16u);
  EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, a, b),
                           eri_shell_quartet(ab_small, ab_small)),
            1e-12);
}

TEST(ShellPairLayoutTest, TermAndProductTableSizes) {
  // terms holds, per component pair, the product over dimensions of
  // (a_dim + b_dim + 1) Hermite indices; e holds one product per
  // primitive pair and term; tuv covers t + u + v <= la + lb.
  emc::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const Shell a = random_shell(rng, static_cast<int>(rng.range(0, 3)));
    const Shell b = random_shell(rng, static_cast<int>(rng.range(0, 3)));
    const ShellPairData pr = make_shell_pair(a, b);
    std::size_t expected = 0;
    for (const CartesianComponent& ca : pr.comps_a) {
      for (const CartesianComponent& cb : pr.comps_b) {
        expected += static_cast<std::size_t>((ca.lx + cb.lx + 1) *
                                             (ca.ly + cb.ly + 1) *
                                             (ca.lz + cb.lz + 1));
      }
    }
    const int lab = a.l + b.l;
    EXPECT_EQ(pr.terms.size(), expected);
    EXPECT_EQ(pr.e.size(), pr.prims.size() * pr.terms.size());
    EXPECT_EQ(pr.term_begin.size(),
              static_cast<std::size_t>(pr.na() * pr.nb() + 1));
    EXPECT_EQ(static_cast<std::size_t>(pr.term_begin.back()),
              pr.terms.size());
    EXPECT_EQ(pr.tuv.size(),
              static_cast<std::size_t>((lab + 1) * (lab + 2) * (lab + 3) / 6));
    for (int k : pr.terms) {
      ASSERT_GE(k, 0);
      ASSERT_LT(static_cast<std::size_t>(k), pr.tuv.size());
    }
  }
}

TEST(ShellPairEriTest, CachedPairsAreReusableAcrossQuartets) {
  // The same ShellPairData object consumed as bra and as ket, repeatedly,
  // must keep producing the direct answer (guards against any hidden
  // mutable state in the pair tables).
  emc::Rng rng(7);
  const Shell a = random_shell(rng, 2);
  const Shell b = random_shell(rng, 1);
  const Shell c = random_shell(rng, 0);
  const ShellPairData ab = make_shell_pair(a, b);
  const ShellPairData cc = make_shell_pair(c, c);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, c, c),
                             eri_shell_quartet(ab, cc)),
              1e-12);
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(c, c, a, b),
                             eri_shell_quartet(cc, ab)),
              1e-12);
  }
}

TEST(ShellPairEriTest, DeepContractionWaterShells) {
  // STO-3G oxygen 1s against itself: the deepest contraction in the
  // suite's bases, where the pair-level exp(-mu |AB|^2) prefactors and
  // primitive pruning matter most.
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const auto& shells = basis.shells();
  for (std::size_t i = 0; i < shells.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const EriBlock direct =
          eri_shell_quartet_direct(shells[i], shells[j], shells[i],
                                   shells[j]);
      const EriBlock cached =
          eri_shell_quartet(shells[i], shells[j], shells[i], shells[j]);
      EXPECT_LT(max_block_diff(direct, cached), 1e-12)
          << "pair " << i << "," << j;
    }
  }
}

TEST(BoysTableTest, MatchesSeriesReferenceOnGrid) {
  // Tabulated Taylor interpolation vs the ascending-series reference,
  // everywhere the table is consulted: x in [0, 40], orders up to 16.
  std::vector<double> fast(17), ref(17);
  double max_err = 0.0;
  for (int i = 0; i <= 1600; ++i) {
    const double x = 0.025 * i;
    boys(x, fast);
    boys_reference(x, ref);
    for (int m = 0; m <= 16; ++m) {
      max_err = std::max(max_err, std::abs(fast[m] - ref[m]));
    }
  }
  EXPECT_LT(max_err, 1e-13);
}

TEST(BoysTableTest, OffGridPointsAndHighOrderFallback) {
  // Irrational-ish arguments (worst case for the interpolation step) and
  // orders beyond the table, which must fall back to the reference path.
  std::vector<double> fast(25), ref(25);
  for (double x : {0.0333333, 1.0499999, 7.7771, 19.95001, 34.999}) {
    boys(x, fast);
    boys_reference(x, ref);
    for (int m = 0; m <= 24; ++m) {
      EXPECT_NEAR(fast[m], ref[m], 1e-13) << "x=" << x << " m=" << m;
    }
  }
}

TEST(FullEriTensorTest, MatchesLegacyAllQuartetsFill) {
  // The canonical-quartet + symmetric-fill tensor must agree with the
  // legacy fill that evaluates every (i,j,k,l) with the direct kernel.
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const auto& shells = basis.shells();
  const int n = basis.function_count();
  const auto nn = static_cast<std::size_t>(n);
  std::vector<double> legacy(nn * nn * nn * nn, 0.0);
  for (const Shell& si : shells) {
    for (const Shell& sj : shells) {
      for (const Shell& sk : shells) {
        for (const Shell& sl : shells) {
          const EriBlock block = eri_shell_quartet_direct(si, sj, sk, sl);
          for (int a = 0; a < block.na(); ++a) {
            for (int b = 0; b < block.nb(); ++b) {
              for (int c = 0; c < block.nc(); ++c) {
                for (int d = 0; d < block.nd(); ++d) {
                  const auto mu =
                      static_cast<std::size_t>(si.first_function + a);
                  const auto nu =
                      static_cast<std::size_t>(sj.first_function + b);
                  const auto la =
                      static_cast<std::size_t>(sk.first_function + c);
                  const auto sg =
                      static_cast<std::size_t>(sl.first_function + d);
                  legacy[((mu * nn + nu) * nn + la) * nn + sg] =
                      block(a, b, c, d);
                }
              }
            }
          }
        }
      }
    }
  }

  const std::vector<double> tensor = full_eri_tensor(basis);
  ASSERT_EQ(tensor.size(), legacy.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(tensor[i] - legacy[i]));
  }
  EXPECT_LT(max_diff, 1e-12);
}

TEST(FullEriTensorTest, BitwiseEightFoldSymmetric) {
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const std::vector<double> t = full_eri_tensor(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());
  auto at = [&](std::size_t a, std::size_t b, std::size_t c,
                std::size_t d) { return t[((a * n + b) * n + c) * n + d]; };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      for (std::size_t c = 0; c <= a; ++c) {
        for (std::size_t d = 0; d <= c; ++d) {
          const double v = at(a, b, c, d);
          // Bitwise equality, not approximate: the canonical fill writes
          // the identical double to all eight orbit positions.
          EXPECT_EQ(v, at(b, a, c, d));
          EXPECT_EQ(v, at(a, b, d, c));
          EXPECT_EQ(v, at(b, a, d, c));
          EXPECT_EQ(v, at(c, d, a, b));
          EXPECT_EQ(v, at(d, c, a, b));
          EXPECT_EQ(v, at(c, d, b, a));
          EXPECT_EQ(v, at(d, c, b, a));
        }
      }
    }
  }
}

TEST(SchwarzMatrixTest, PairCachePathMatchesBasisPath) {
  const BasisSet basis = BasisSet::build(make_water_cluster(2), "6-31g");
  const ShellPairList pairs(basis);
  const auto via_pairs = schwarz_matrix(pairs);
  const auto via_basis = schwarz_matrix(basis);
  ASSERT_EQ(via_pairs.rows(), via_basis.rows());
  for (std::size_t i = 0; i < via_pairs.rows(); ++i) {
    for (std::size_t j = 0; j < via_pairs.cols(); ++j) {
      EXPECT_NEAR(via_pairs(i, j), via_basis(i, j), 1e-12)
          << "shells " << i << "," << j;
    }
  }
}

TEST(SchwarzMatrixTest, StillBoundsQuartetsWithCachedKernel) {
  // Q(ij) Q(kl) must bound |(ij|kl)| for the values the cached kernel
  // actually produces (the Cauchy-Schwarz guarantee the screening relies
  // on must survive the kernel swap).
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const ShellPairList pairs(basis);
  const auto q = schwarz_matrix(pairs);
  const int n = static_cast<int>(basis.shell_count());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      for (int k = 0; k < n; ++k) {
        for (int l = 0; l <= k; ++l) {
          const EriBlock block =
              eri_shell_quartet(pairs.pair(i, j), pairs.pair(k, l));
          const double bound = q(static_cast<std::size_t>(i),
                                 static_cast<std::size_t>(j)) *
                               q(static_cast<std::size_t>(k),
                                 static_cast<std::size_t>(l));
          EXPECT_LE(block.max_abs(), bound + 1e-14)
              << i << j << k << l;
        }
      }
    }
  }
}

}  // namespace
