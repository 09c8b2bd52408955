#include "chem/eri.hpp"

#include <algorithm>
#include <cmath>

#include "chem/constants.hpp"
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

/// Accumulates the UNNORMALIZED contracted quartet (ab|cd) of two cached
/// pairs into `block`. Callers apply the per-component contracted norms
/// they need (all of them for a full quartet; only the diagonal for the
/// Schwarz bounds).
///
/// Two-step McMurchie–Davidson contraction. For each bra primitive pair,
/// step 1 transforms the ket side over all ket primitive pairs into
///   Y[cd][tuv] = sum_kp pref (-1)^{tau+nu+phi} E^{cd}_{tau nu phi}
///                R_{t+tau, u+nu, v+phi},
/// for every bra Hermite triple tuv; step 2 then contracts the bra side
/// once: (ab|cd) += sum_tuv E^{ab}_{tuv} Y[cd][tuv]. R offsets are
/// additive in the flat (t, u, v) cube, so the inner loop is a branch-free
/// gather and multiply-add. All scratch is local to the call.
void accumulate_quartet(const ShellPairData& bra, const ShellPairData& ket,
                        EriBlock& block) {
  const int order = bra.la + bra.lb + ket.la + ket.lb;
  const auto n1 = static_cast<std::size_t>(order + 1);
  auto r_offset = [n1](const HermiteIndex& h) {
    return (static_cast<std::size_t>(h.t) * n1 +
            static_cast<std::size_t>(h.u)) *
               n1 +
           static_cast<std::size_t>(h.v);
  };
  const std::size_t n_tuv = bra.tuv.size();
  const std::size_t bra_terms = bra.terms.size();
  const std::size_t ket_terms = ket.terms.size();
  const std::size_t ncd = static_cast<std::size_t>(ket.na()) *
                          static_cast<std::size_t>(ket.nb());

  // offsets[0 .. n_tuv) locate the bra triples and offsets[n_tuv + k]
  // the ket term k in the R cube. Y and the ket terms' signs
  // (-1)^{tau+nu+phi} share one buffer: two allocations per quartet,
  // none per primitive quartet.
  std::vector<std::size_t> offsets(n_tuv + ket_terms);
  std::vector<double> scratch(ncd * n_tuv + ket_terms);
  for (std::size_t i = 0; i < n_tuv; ++i) offsets[i] = r_offset(bra.tuv[i]);
  double* const y = scratch.data();
  double* const ket_sign = y + ncd * n_tuv;
  for (std::size_t k = 0; k < ket_terms; ++k) {
    const HermiteIndex& h = ket.tuv[static_cast<std::size_t>(ket.terms[k])];
    offsets[n_tuv + k] = r_offset(h);
    ket_sign[k] = ((h.t + h.u + h.v) % 2 == 0) ? 1.0 : -1.0;
  }
  const std::size_t* const bra_off = offsets.data();
  const std::size_t* const ket_off = bra_off + n_tuv;

  HermiteR rtuv(order);

  for (std::size_t ip = 0; ip < bra.prims.size(); ++ip) {
    const PrimitivePairData& bp = bra.prims[ip];
    bool touched = false;
    for (std::size_t iq = 0; iq < ket.prims.size(); ++iq) {
      const PrimitivePairData& kp = ket.prims[iq];
      if (bp.bound * kp.bound < kPrimQuartetPrune) continue;
      if (!touched) {
        std::fill(y, y + ncd * n_tuv, 0.0);
        touched = true;
      }
      const double p = bp.p;
      const double q = kp.p;
      const double alpha = p * q / (p + q);
      const Vec3 pq{bp.center[0] - kp.center[0],
                    bp.center[1] - kp.center[1],
                    bp.center[2] - kp.center[2]};
      rtuv.recompute(alpha, pq);
      const double* const r = rtuv.data();
      const double pref = kTwoPiToFiveHalves * bp.coeff_over_p *
                          kp.coeff_over_p / std::sqrt(p + q);

      // Step 1: ket transform into Y.
      const double* const ek = ket.e.data() + iq * ket_terms;
      for (std::size_t cd = 0; cd < ncd; ++cd) {
        double* const ycd = y + cd * n_tuv;
        const auto k_end = static_cast<std::size_t>(ket.term_begin[cd + 1]);
        for (auto k = static_cast<std::size_t>(ket.term_begin[cd]); k < k_end;
             ++k) {
          const double w = pref * ket_sign[k] * ek[k];
          const double* const rk = r + ket_off[k];
          for (std::size_t i = 0; i < n_tuv; ++i) {
            ycd[i] += w * rk[bra_off[i]];
          }
        }
      }
    }
    if (!touched) continue;

    // Step 2: contract the bra side, once per bra primitive pair.
    const double* const eb = bra.e.data() + ip * bra_terms;
    std::size_t ab = 0;
    for (int ia = 0; ia < bra.na(); ++ia) {
      for (int ib = 0; ib < bra.nb(); ++ib, ++ab) {
        const auto k_begin = static_cast<std::size_t>(bra.term_begin[ab]);
        const auto k_end = static_cast<std::size_t>(bra.term_begin[ab + 1]);
        std::size_t cd = 0;
        for (int ic = 0; ic < ket.na(); ++ic) {
          for (int id = 0; id < ket.nb(); ++id, ++cd) {
            const double* const ycd = y + cd * n_tuv;
            double sum = 0.0;
            for (std::size_t k = k_begin; k < k_end; ++k) {
              sum += eb[k] * ycd[static_cast<std::size_t>(bra.terms[k])];
            }
            block(ia, ib, ic, id) += sum;
          }
        }
      }
    }
  }
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
