#include "chem/eri.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "chem/boys.hpp"
#include "chem/constants.hpp"
#include "chem/hermite_r_kernel.hpp"
#include "chem/integrals.hpp"

namespace emc::chem {

double EriBlock::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

namespace {

/// 2 pi^{5/2}, the universal ERI prefactor numerator.
constexpr double kTwoPiToFiveHalves = 34.986836655249725;

/// Primitive quartets whose bound product (see PrimitivePairData::bound)
/// falls below this are skipped. Chosen so that the summed omission error
/// stays orders of magnitude below the 1e-12 accuracy the property tests
/// demand and the 1e-10 Eh SCF reproducibility requirement.
constexpr double kPrimQuartetPrune = 1e-17;

bool pruned(const PrimitivePairData& bp, const PrimitivePairData& kp) {
  return bp.bound * kp.bound < kPrimQuartetPrune;
}

/// Hermite triples (t, u, v) with t + u + v <= l.
constexpr int hermite_triples(int l) {
  return (l + 1) * (l + 2) * (l + 3) / 6;
}

/// Nonzero Hermite terms of a shell pair (la, lb): the sum over its
/// component pairs of (ax+bx+1)(ay+by+1)(az+bz+1), as make_shell_pair
/// lays them out.
constexpr int pair_terms(int la, int lb) {
  int n = 0;
  for (int ax = la; ax >= 0; --ax) {
    for (int ay = la - ax; ay >= 0; --ay) {
      for (int bx = lb; bx >= 0; --bx) {
        for (int by = lb - bx; by >= 0; --by) {
          n += (ax + bx + 1) * (ay + by + 1) * (la - ax - ay + lb - bx - by + 1);
        }
      }
    }
  }
  return n;
}

/// The largest component-pair count and term count over shell pairs
/// with la + lb = l (each shell at most kMaxPairShellL).
struct PairCapacity {
  int functions = 0;
  int terms = 0;
};
constexpr PairCapacity pair_capacity(int l) {
  PairCapacity c;
  for (int la = 0; la <= kMaxPairShellL; ++la) {
    const int lb = l - la;
    if (lb < 0 || lb > kMaxPairShellL) continue;
    c.functions = std::max(c.functions,
                           cartesian_count(la) * cartesian_count(lb));
    c.terms = std::max(c.terms, pair_terms(la, lb));
  }
  return c;
}

/// Offsets of the bra Hermite triples (make_shell_pair's lexicographic
/// `tuv` order) in the R cube of order kOrder.
template <int kBraL, int kOrder>
constexpr auto bra_offsets() {
  std::array<std::size_t, static_cast<std::size_t>(hermite_triples(kBraL))>
      off{};
  constexpr auto n1 = static_cast<std::size_t>(kOrder + 1);
  std::size_t i = 0;
  for (int t = 0; t <= kBraL; ++t) {
    for (int u = 0; t + u <= kBraL; ++u) {
      for (int v = 0; t + u + v <= kBraL; ++v) {
        off[i++] = (static_cast<std::size_t>(t) * n1 +
                    static_cast<std::size_t>(u)) *
                       n1 +
                   static_cast<std::size_t>(v);
      }
    }
  }
  return off;
}

/// Primitive quartets per Boys batch.
constexpr std::size_t kBatch = 16;

/// Per-call scratch of the (kBraL, kKetL) kernel, sized for the largest
/// shell pairs of each total angular momentum. It lives on the stack and
/// is deliberately left uninitialized: every entry is written before it
/// is read.
template <int kBraL, int kKetL>
struct QuartetScratch {
  static constexpr int kOrder = kBraL + kKetL;
  static constexpr auto kTuv = static_cast<std::size_t>(hermite_triples(kBraL));
  static constexpr auto kCd =
      static_cast<std::size_t>(pair_capacity(kKetL).functions);
  static constexpr auto kKetTerms =
      static_cast<std::size_t>(pair_capacity(kKetL).terms);
  static constexpr std::size_t kF = kOrder + 1;

  std::array<double, kCd * kTuv> y;  ///< Y[cd][tuv]
  std::array<double, detail::hermite_r_cube(kOrder)> r, r_tmp;
  std::array<std::uint16_t, kKetTerms> ket_off;  ///< ket term -> R offset
  std::array<std::uint8_t, kKetTerms> ket_odd;   ///< tau + nu + phi odd
  // One Boys batch: surviving primitive quartets (bra and ket primitive
  // pair indices) and their arguments.
  std::array<std::size_t, kBatch> ip, iq;
  std::array<double, kBatch> alpha, pref, x;
  std::array<Vec3, kBatch> pq;
  std::array<double, kBatch * kF> f;
};
static_assert(detail::hermite_r_cube(2 * 2 * kMaxPairShellL) <= 65536,
              "R offsets are stored as 16-bit integers");
static_assert(sizeof(QuartetScratch<2 * kMaxPairShellL, 2 * kMaxPairShellL>) <
                  128 * 1024,
              "(ff|ff) stack scratch must stay under 128 KB");

/// Accumulates the UNNORMALIZED contracted quartet (ab|cd) of two cached
/// pairs with la + lb = kBraL and lc + ld = kKetL into `block`. Callers
/// apply the per-component contracted norms they need (all of them for a
/// full quartet; only the diagonal for the Schwarz bounds).
///
/// Two-step McMurchie–Davidson contraction. The primitive quartets that
/// survive pruning are taken in (bra, ket) primitive-pair order, in
/// batches of up to kBatch: Boys values for the whole batch at once, then
/// per primitive quartet the fixed-order R recursion and the ket
/// transform
///   Y[cd][tuv] += pref (-1)^{tau+nu+phi} E^{cd}_{tau nu phi}
///                 R_{t+tau, u+nu, v+phi}
/// for every bra Hermite triple tuv. Once per bra primitive pair the bra
/// side is contracted: (ab|cd) += sum_tuv E^{ab}_{tuv} Y[cd][tuv]. R
/// offsets are additive in the flat (t, u, v) cube and the bra ones are
/// compile-time constants, so the inner loop is a fixed-length
/// multiply-add over constant strides. Each value is computed by the
/// same operations, and summed in the same order, as in a kernel that
/// handles one primitive quartet at a time, so the results are bitwise
/// the same.
template <int kBraL, int kKetL>
void accumulate_quartet_l(const ShellPairData& bra, const ShellPairData& ket,
                          EriBlock& block) {
  using Scratch = QuartetScratch<kBraL, kKetL>;
  constexpr int kOrder = Scratch::kOrder;
  constexpr std::size_t kTuv = Scratch::kTuv;
  constexpr std::size_t kF = Scratch::kF;
  static constexpr auto kBraOff = bra_offsets<kBraL, kOrder>();

  Scratch s;
  const std::size_t bra_terms = bra.terms.size();
  const std::size_t ket_terms = ket.terms.size();
  const std::size_t ncd = static_cast<std::size_t>(ket.na()) *
                          static_cast<std::size_t>(ket.nb());
  for (std::size_t k = 0; k < ket_terms; ++k) {
    const HermiteIndex& h = ket.tuv[static_cast<std::size_t>(ket.terms[k])];
    s.ket_off[k] = static_cast<std::uint16_t>((h.t * (kOrder + 1) + h.u) *
                                                  (kOrder + 1) +
                                              h.v);
    s.ket_odd[k] = static_cast<std::uint8_t>((h.t + h.u + h.v) % 2);
  }
  double* const y = s.y.data();

  // Step 2: contract the bra side of bra primitive pair ip with Y. The
  // ket function pairs cd run innermost, each with its own sum taken in
  // bra term order, so the chains of different cd overlap; block row ab
  // is contiguous in cd.
  auto contract_bra = [&](std::size_t ip) {
    const double* const eb = bra.e.data() + ip * bra_terms;
    const std::size_t nab = static_cast<std::size_t>(bra.na()) *
                            static_cast<std::size_t>(bra.nb());
    double* const block_row = &block(0, 0, 0, 0);
    for (std::size_t ab = 0; ab < nab; ++ab) {
      std::array<double, Scratch::kCd> sum;
      std::fill(sum.begin(), sum.begin() + static_cast<std::ptrdiff_t>(ncd),
                0.0);
      const auto k_end = static_cast<std::size_t>(bra.term_begin[ab + 1]);
      for (auto k = static_cast<std::size_t>(bra.term_begin[ab]); k < k_end;
           ++k) {
        const double ek = eb[k];
        const double* const yk = y + bra.terms[k];
        for (std::size_t cd = 0; cd < ncd; ++cd) {
          sum[cd] += ek * yk[cd * kTuv];
        }
      }
      double* const row = block_row + ab * ncd;
      for (std::size_t cd = 0; cd < ncd; ++cd) row[cd] += sum[cd];
    }
  };

  // Step 1 for one batch: Boys for all its elements, then per element the
  // R table and the ket transform into Y. Elements arrive in (bra, ket)
  // primitive order; Y is contracted and cleared whenever the bra
  // primitive pair changes.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t y_ip = kNone;  // bra primitive pair Y accumulates
  auto transform_batch = [&](std::size_t n) {
    boys_batch(std::span<const double>(s.x.data(), n), kOrder,
               std::span<double>(s.f.data(), n * kF));
    for (std::size_t e = 0; e < n; ++e) {
      if (s.ip[e] != y_ip) {
        if (y_ip != kNone) contract_bra(y_ip);
        std::fill(y, y + ncd * kTuv, 0.0);
        y_ip = s.ip[e];
      }
      detail::hermite_r<kOrder>(s.alpha[e], s.pq[e], &s.f[e * kF],
                                s.r.data(), s.r_tmp.data());
      const double* const r = s.r.data();
      // pref (-1)^{tau+nu+phi} is pref with its sign flipped: exact.
      const double spref[2] = {s.pref[e], -s.pref[e]};
      const double* const ek = ket.e.data() + s.iq[e] * ket_terms;
      for (std::size_t cd = 0; cd < ncd; ++cd) {
        double* const ycd = y + cd * kTuv;
        const auto k_end = static_cast<std::size_t>(ket.term_begin[cd + 1]);
        for (auto k = static_cast<std::size_t>(ket.term_begin[cd]); k < k_end;
             ++k) {
          const double w = spref[s.ket_odd[k]] * ek[k];
          const double* const rk = r + s.ket_off[k];
          for (std::size_t i = 0; i < kTuv; ++i) {
            ycd[i] += w * rk[kBraOff[i]];
          }
        }
      }
    }
  };

  std::size_t n = 0;
  for (std::size_t ip = 0; ip < bra.prims.size(); ++ip) {
    const PrimitivePairData& bp = bra.prims[ip];
    for (std::size_t iq = 0; iq < ket.prims.size(); ++iq) {
      const PrimitivePairData& kp = ket.prims[iq];
      if (pruned(bp, kp)) continue;
      const double p = bp.p;
      const double q = kp.p;
      const double alpha = p * q / (p + q);
      const Vec3 pq{bp.center[0] - kp.center[0],
                    bp.center[1] - kp.center[1],
                    bp.center[2] - kp.center[2]};
      s.ip[n] = ip;
      s.iq[n] = iq;
      s.alpha[n] = alpha;
      s.pq[n] = pq;
      s.x[n] = alpha * (pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2]);
      s.pref[n] = kTwoPiToFiveHalves * bp.coeff_over_p * kp.coeff_over_p /
                  std::sqrt(p + q);
      if (++n == kBatch) {
        transform_batch(n);
        n = 0;
      }
    }
  }
  if (n > 0) transform_batch(n);
  if (y_ip != kNone) contract_bra(y_ip);
}

using QuartetKernel = void (*)(const ShellPairData&, const ShellPairData&,
                               EriBlock&);
constexpr int kPairLs = 2 * kMaxPairShellL + 1;

template <std::size_t... kI>
constexpr std::array<QuartetKernel, sizeof...(kI)> quartet_kernels(
    std::index_sequence<kI...>) {
  return {&accumulate_quartet_l<static_cast<int>(kI) / kPairLs,
                                static_cast<int>(kI) % kPairLs>...};
}

/// accumulate_quartet_l for every (bra L, ket L), at index
/// bra L * kPairLs + ket L.
constexpr auto kQuartetKernels =
    quartet_kernels(std::make_index_sequence<kPairLs * kPairLs>{});

void check_pair_l(const ShellPairData& pair) {
  if (pair.la < 0 || pair.lb < 0 || pair.la > kMaxPairShellL ||
      pair.lb > kMaxPairShellL) {
    throw std::invalid_argument("ERI kernel: shell pair (" +
                                std::to_string(pair.la) + ", " +
                                std::to_string(pair.lb) +
                                ") exceeds l = 3 (f)");
  }
}

void accumulate_quartet(const ShellPairData& bra, const ShellPairData& ket,
                        EriBlock& block) {
  check_pair_l(bra);
  check_pair_l(ket);
  kQuartetKernels[static_cast<std::size_t>((bra.la + bra.lb) * kPairLs +
                                           ket.la + ket.lb)](bra, ket, block);
}

}  // namespace

EriBlock eri_shell_quartet(const ShellPairData& bra,
                           const ShellPairData& ket) {
  EriBlock block(bra.na(), bra.nb(), ket.na(), ket.nb());
  accumulate_quartet(bra, ket, block);
  for (std::size_t ia = 0; ia < bra.norm_a.size(); ++ia) {
    for (std::size_t ib = 0; ib < bra.norm_b.size(); ++ib) {
      const double nab = bra.norm_a[ia] * bra.norm_b[ib];
      for (std::size_t ic = 0; ic < ket.norm_a.size(); ++ic) {
        for (std::size_t id = 0; id < ket.norm_b.size(); ++id) {
          block(static_cast<int>(ia), static_cast<int>(ib),
                static_cast<int>(ic), static_cast<int>(id)) *=
              nab * ket.norm_a[ic] * ket.norm_b[id];
        }
      }
    }
  }
  return block;
}

std::size_t kept_primitive_quartets(const ShellPairData& bra,
                                    const ShellPairData& ket) {
  std::size_t n = 0;
  for (const PrimitivePairData& bp : bra.prims) {
    for (const PrimitivePairData& kp : ket.prims) {
      if (!pruned(bp, kp)) ++n;
    }
  }
  return n;
}

EriBlock eri_shell_quartet(const Shell& sa, const Shell& sb, const Shell& sc,
                           const Shell& sd) {
  return eri_shell_quartet(make_shell_pair(sa, sb), make_shell_pair(sc, sd));
}

EriBlock eri_shell_quartet_direct(const Shell& sa, const Shell& sb,
                                  const Shell& sc, const Shell& sd) {
  const auto ca = cartesian_components(sa.l);
  const auto cb = cartesian_components(sb.l);
  const auto cc_ = cartesian_components(sc.l);
  const auto cd = cartesian_components(sd.l);
  EriBlock block(static_cast<int>(ca.size()), static_cast<int>(cb.size()),
                 static_cast<int>(cc_.size()), static_cast<int>(cd.size()));

  const int lab = sa.l + sb.l;
  const int lcd = sc.l + sd.l;

  for (std::size_t p1 = 0; p1 < sa.exponents.size(); ++p1) {
    const double a = sa.exponents[p1];
    for (std::size_t p2 = 0; p2 < sb.exponents.size(); ++p2) {
      const double b = sb.exponents[p2];
      const double p = a + b;
      const double cab = sa.coefficients[p1] * sb.coefficients[p2];
      const Vec3 pctr{(a * sa.center[0] + b * sb.center[0]) / p,
                      (a * sa.center[1] + b * sb.center[1]) / p,
                      (a * sa.center[2] + b * sb.center[2]) / p};
      const HermiteE e1x(sa.l, sb.l, a, b, sa.center[0], sb.center[0]);
      const HermiteE e1y(sa.l, sb.l, a, b, sa.center[1], sb.center[1]);
      const HermiteE e1z(sa.l, sb.l, a, b, sa.center[2], sb.center[2]);

      for (std::size_t p3 = 0; p3 < sc.exponents.size(); ++p3) {
        const double c = sc.exponents[p3];
        for (std::size_t p4 = 0; p4 < sd.exponents.size(); ++p4) {
          const double d = sd.exponents[p4];
          const double q = c + d;
          const double ccd = sc.coefficients[p3] * sd.coefficients[p4];
          const Vec3 qctr{(c * sc.center[0] + d * sd.center[0]) / q,
                          (c * sc.center[1] + d * sd.center[1]) / q,
                          (c * sc.center[2] + d * sd.center[2]) / q};
          const HermiteE e2x(sc.l, sd.l, c, d, sc.center[0], sd.center[0]);
          const HermiteE e2y(sc.l, sd.l, c, d, sc.center[1], sd.center[1]);
          const HermiteE e2z(sc.l, sd.l, c, d, sc.center[2], sd.center[2]);

          const double alpha = p * q / (p + q);
          const Vec3 pq{pctr[0] - qctr[0], pctr[1] - qctr[1],
                        pctr[2] - qctr[2]};
          const HermiteR rtuv(lab + lcd, alpha, pq,
                              /*reference_boys=*/true);
          const double pref = 2.0 * std::pow(kPi, 2.5) /
                              (p * q * std::sqrt(p + q)) * cab * ccd;

          for (std::size_t ia = 0; ia < ca.size(); ++ia) {
            for (std::size_t ib = 0; ib < cb.size(); ++ib) {
              const auto& A = ca[ia];
              const auto& B = cb[ib];
              for (std::size_t ic = 0; ic < cc_.size(); ++ic) {
                for (std::size_t id = 0; id < cd.size(); ++id) {
                  const auto& C = cc_[ic];
                  const auto& D = cd[id];
                  double sum = 0.0;
                  for (int t = 0; t <= A.lx + B.lx; ++t) {
                    const double et = e1x(A.lx, B.lx, t);
                    if (et == 0.0) continue;
                    for (int u = 0; u <= A.ly + B.ly; ++u) {
                      const double eu = e1y(A.ly, B.ly, u);
                      if (eu == 0.0) continue;
                      for (int v = 0; v <= A.lz + B.lz; ++v) {
                        const double ev = e1z(A.lz, B.lz, v);
                        if (ev == 0.0) continue;
                        double inner = 0.0;
                        for (int tau = 0; tau <= C.lx + D.lx; ++tau) {
                          const double ft = e2x(C.lx, D.lx, tau);
                          if (ft == 0.0) continue;
                          for (int nu = 0; nu <= C.ly + D.ly; ++nu) {
                            const double fu = e2y(C.ly, D.ly, nu);
                            if (fu == 0.0) continue;
                            for (int phi = 0; phi <= C.lz + D.lz; ++phi) {
                              const double fv = e2z(C.lz, D.lz, phi);
                              if (fv == 0.0) continue;
                              const double sign =
                                  ((tau + nu + phi) % 2 == 0) ? 1.0 : -1.0;
                              inner += sign * ft * fu * fv *
                                       rtuv(t + tau, u + nu, v + phi);
                            }
                          }
                        }
                        sum += et * eu * ev * inner;
                      }
                    }
                  }
                  block(static_cast<int>(ia), static_cast<int>(ib),
                        static_cast<int>(ic), static_cast<int>(id)) +=
                      pref * sum;
                }
              }
            }
          }
        }
      }
    }
  }

  // Per-component contracted normalization.
  auto norms = [](const Shell& s) {
    const auto comps = cartesian_components(s.l);
    std::vector<double> n(comps.size());
    for (std::size_t i = 0; i < comps.size(); ++i) {
      n[i] = s.component_norm(comps[i].lx, comps[i].ly, comps[i].lz);
    }
    return n;
  };
  const auto na = norms(sa), nb = norms(sb), nc = norms(sc), nd = norms(sd);
  for (std::size_t ia = 0; ia < na.size(); ++ia) {
    for (std::size_t ib = 0; ib < nb.size(); ++ib) {
      for (std::size_t ic = 0; ic < nc.size(); ++ic) {
        for (std::size_t id = 0; id < nd.size(); ++id) {
          block(static_cast<int>(ia), static_cast<int>(ib),
                static_cast<int>(ic), static_cast<int>(id)) *=
              na[ia] * nb[ib] * nc[ic] * nd[id];
        }
      }
    }
  }
  return block;
}

linalg::Matrix schwarz_matrix(const ShellPairList& pairs) {
  const std::size_t n = pairs.basis().shell_count();
  linalg::Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const ShellPairData& pr =
          pairs.pair(static_cast<int>(i), static_cast<int>(j));
      EriBlock raw(pr.na(), pr.nb(), pr.na(), pr.nb());
      accumulate_quartet(pr, pr, raw);
      // Only the (fa, fb, fa, fb) diagonal is read, so only it gets the
      // contracted normalization (applied squared: bra and ket coincide).
      double m = 0.0;
      for (int fa = 0; fa < raw.na(); ++fa) {
        for (int fb = 0; fb < raw.nb(); ++fb) {
          const double nn = pr.norm_a[static_cast<std::size_t>(fa)] *
                            pr.norm_b[static_cast<std::size_t>(fb)];
          m = std::max(m, std::abs(raw(fa, fb, fa, fb)) * nn * nn);
        }
      }
      q(i, j) = q(j, i) = std::sqrt(m);
    }
  }
  return q;
}

linalg::Matrix schwarz_matrix(const BasisSet& basis) {
  return schwarz_matrix(ShellPairList(basis));
}

std::vector<double> full_eri_tensor(const BasisSet& basis) {
  const auto n = static_cast<std::size_t>(basis.function_count());
  std::vector<double> g(n * n * n * n, 0.0);
  const ShellPairList pairs(basis);
  const auto& shells = basis.shells();
  const int ns = static_cast<int>(shells.size());

  auto put = [&g, n](std::size_t a, std::size_t b, std::size_t c,
                     std::size_t d, double v) {
    g[((a * n + b) * n + c) * n + d] = v;
  };

  // Canonical quartets only (i >= j, k >= l, rank(kl) <= rank(ij)); the
  // remaining entries follow from the 8-fold permutational symmetry.
  // Every member of a tuple's symmetry orbit receives its value from the
  // same block element, so the tensor is bitwise symmetric.
  for (int i = 0; i < ns; ++i) {
    for (int j = 0; j <= i; ++j) {
      const ShellPairData& bra = pairs.pair(i, j);
      for (int k = 0; k <= i; ++k) {
        const int lmax = (k == i) ? j : k;
        for (int l = 0; l <= lmax; ++l) {
          const EriBlock b = eri_shell_quartet(bra, pairs.pair(k, l));
          for (int fa = 0; fa < b.na(); ++fa) {
            for (int fb = 0; fb < b.nb(); ++fb) {
              for (int fc = 0; fc < b.nc(); ++fc) {
                for (int fd = 0; fd < b.nd(); ++fd) {
                  const double v = b(fa, fb, fc, fd);
                  const auto ia =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          i)].first_function +
                                               fa);
                  const auto ib =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          j)].first_function +
                                               fb);
                  const auto ic =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          k)].first_function +
                                               fc);
                  const auto id =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          l)].first_function +
                                               fd);
                  put(ia, ib, ic, id, v);
                  put(ib, ia, ic, id, v);
                  put(ia, ib, id, ic, v);
                  put(ib, ia, id, ic, v);
                  put(ic, id, ia, ib, v);
                  put(id, ic, ia, ib, v);
                  put(ic, id, ib, ia, v);
                  put(id, ic, ib, ia, v);
                }
              }
            }
          }
        }
      }
    }
  }
  return g;
}

}  // namespace emc::chem
