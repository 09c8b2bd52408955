#include "chem/boys.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chem/constants.hpp"

namespace emc::chem {

namespace {

/// Ascending series for F_m(x):
///   F_m(x) = e^{-x} / 2 * sum_{k>=0} (2m-1)!! (2x)^k / (2m+2k+1)!!
/// expressed as the equivalent Kummer series; converges fast for x < ~45.
double boys_series(int m, double x) {
  const double expmx = std::exp(-x);
  double term = 1.0 / (2.0 * static_cast<double>(m) + 1.0);
  double sum = term;
  for (int k = 1; k < 300; ++k) {
    term *= 2.0 * x / (2.0 * static_cast<double>(m + k) + 1.0);
    sum += term;
    if (term < 1e-17 * sum) break;
  }
  return expmx * sum;
}

/// Asymptotic large-x evaluation: F_0 = sqrt(pi/(4x)) and upward
/// recursion with the (negligible there) e^{-x} term dropped.
void boys_asymptotic(double x, std::span<double> out) {
  out[0] = 0.5 * std::sqrt(kPi / x);
  const double inv2x = 1.0 / (2.0 * x);
  for (std::size_t m = 1; m < out.size(); ++m) {
    out[m] = out[m - 1] * (2.0 * static_cast<double>(m) - 1.0) * inv2x;
  }
}

// Table layout: kGridPoints rows at x = i * kGridStep, each holding
// orders 0..kTableOrders-1. The Taylor expansion of order m needs table
// columns m..m+kTaylorTerms-1, so the fast path serves m <= kTableMaxM.
constexpr double kLargeX = 35.0;     ///< switch to asymptotic evaluation
constexpr double kSeriesMax = 45.0;  ///< reference: series below this
constexpr int kTaylorTerms = 7;      ///< |delta| <= 0.05 -> error ~1e-14
constexpr double kGridStep = 0.1;
constexpr double kInvGridStep = 10.0;
constexpr int kGridPoints = 352;  ///< covers x in [0, 35.1)
constexpr int kTableMaxM = 20;
constexpr int kTableOrders = kTableMaxM + kTaylorTerms;

struct BoysTable {
  std::vector<double> f;

  BoysTable() : f(static_cast<std::size_t>(kGridPoints) * kTableOrders) {
    for (int i = 0; i < kGridPoints; ++i) {
      const double x = kGridStep * static_cast<double>(i);
      double* row = &f[static_cast<std::size_t>(i) * kTableOrders];
      row[kTableOrders - 1] = boys_series(kTableOrders - 1, x);
      const double expmx = std::exp(-x);
      for (int m = kTableOrders - 2; m >= 0; --m) {
        row[m] = (2.0 * x * row[m + 1] + expmx) /
                 (2.0 * static_cast<double>(m) + 1.0);
      }
    }
  }
};

const BoysTable& boys_table() {
  static const BoysTable table;
  return table;
}

/// The argument check shared by every entry point. NaN fails `x >= 0`,
/// so it never reaches the table index computation.
void check_argument(double x) {
  if (!(x >= 0.0) || !std::isfinite(x)) {
    throw std::invalid_argument("boys: x must be finite and >= 0");
  }
}

/// Arguments per pass of boys_batch's table path.
constexpr std::size_t kChunk = 16;

/// One Horner step of the Taylor expansion across n arguments:
/// acc = acc s / kJ + col. With kJ a constant, the divisions by 1, 2 and
/// 4 compile to exact multiplications.
template <int kJ>
void taylor_step(std::size_t n, double* acc, const double* s,
                 const double* col) {
  for (std::size_t q = 0; q < n; ++q) {
    acc[q] = acc[q] * s[q] / static_cast<double>(kJ) + col[q];
  }
}

}  // namespace

void boys_reference(double x, std::span<double> out) {
  if (out.empty()) return;
  check_argument(x);
  if (x >= kSeriesMax) {
    boys_asymptotic(x, out);
    return;
  }
  const int m_max = static_cast<int>(out.size()) - 1;
  out[static_cast<std::size_t>(m_max)] = boys_series(m_max, x);
  const double expmx = std::exp(-x);
  for (int m = m_max - 1; m >= 0; --m) {
    out[static_cast<std::size_t>(m)] =
        (2.0 * x * out[static_cast<std::size_t>(m + 1)] + expmx) /
        (2.0 * static_cast<double>(m) + 1.0);
  }
}

void boys_batch(std::span<const double> x, int m_max, std::span<double> out) {
  if (m_max < 0) throw std::invalid_argument("boys_batch: m_max must be >= 0");
  const auto stride = static_cast<std::size_t>(m_max) + 1;
  if (out.size() != x.size() * stride) {
    throw std::invalid_argument("boys_batch: out must hold x.size() rows");
  }
  for (const double xi : x) check_argument(xi);

  const BoysTable& table = boys_table();
  const auto top = static_cast<std::size_t>(m_max);
  for (std::size_t c = 0; c < x.size(); c += kChunk) {
    const std::size_t n = std::min(kChunk, x.size() - c);
    // Rows on the table path, gathered so each step below runs across
    // all of them; the others are finished here.
    std::size_t rows[kChunk];
    std::size_t nt = 0;
    for (std::size_t e = c; e < c + n; ++e) {
      const std::span<double> row = out.subspan(e * stride, stride);
      if (x[e] >= kLargeX) {
        boys_asymptotic(x[e], row);
      } else if (m_max > kTableMaxM) {
        boys_reference(x[e], row);
      } else {
        rows[nt++] = e;
      }
    }

    // Structure of arrays over the table-path rows, so that every step
    // below is one loop across independent arguments.
    double xs[kChunk], s[kChunk], acc[kChunk], expmx[kChunk];
    double col[kTaylorTerms][kChunk];  // table columns m_max .. + 6
    for (std::size_t q = 0; q < nt; ++q) {
      xs[q] = x[rows[q]];
      const int i = static_cast<int>(xs[q] * kInvGridStep + 0.5);
      const double* const grid =
          &table.f[static_cast<std::size_t>(i) * kTableOrders + top];
      for (int j = 0; j < kTaylorTerms; ++j) col[j][q] = grid[j];
      s[q] = kGridStep * static_cast<double>(i) - xs[q];
      acc[q] = col[kTaylorTerms - 1][q];
    }
    // F_m(x_i + d) = sum_j F_{m+j}(x_i) (-d)^j / j!  since F_m' = -F_{m+1},
    // by Horner from j = kTaylorTerms - 1 down to 1.
    [&]<int... kStep>(std::integer_sequence<int, kStep...>) {
      (taylor_step<kTaylorTerms - 1 - kStep>(
           nt, acc, s, col[kTaylorTerms - 2 - kStep]),
       ...);
    }(std::make_integer_sequence<int, kTaylorTerms - 1>{});

    // Downward recursion F_m = (2x F_{m+1} + e^{-x}) / (2m + 1); at m = 0
    // the division by 1 is exact and is left out.
    for (std::size_t q = 0; q < nt; ++q) {
      out[rows[q] * stride + top] = acc[q];
      expmx[q] = std::exp(-xs[q]);
    }
    for (int m = m_max - 1; m >= 0; --m) {
      if (m > 0) {
        const double denom = 2.0 * static_cast<double>(m) + 1.0;
        for (std::size_t q = 0; q < nt; ++q) {
          acc[q] = (2.0 * xs[q] * acc[q] + expmx[q]) / denom;
        }
      } else {
        for (std::size_t q = 0; q < nt; ++q) {
          acc[q] = 2.0 * xs[q] * acc[q] + expmx[q];
        }
      }
      const auto mu = static_cast<std::size_t>(m);
      for (std::size_t q = 0; q < nt; ++q) out[rows[q] * stride + mu] = acc[q];
    }
  }
}

void boys(double x, std::span<double> out) {
  if (out.empty()) return;
  boys_batch(std::span<const double>(&x, 1),
             static_cast<int>(out.size()) - 1, out);
}

double boys(int m, double x) {
  std::vector<double> buf(static_cast<std::size_t>(m) + 1);
  boys(x, buf);
  return buf[static_cast<std::size_t>(m)];
}

}  // namespace emc::chem
