#include "chem/fock.hpp"

#include <array>
#include <cmath>

#include "chem/eri.hpp"

namespace emc::chem {

FockBuilder::FockBuilder(const BasisSet& basis, double screen_threshold)
    : basis_(&basis), screen_threshold_(screen_threshold), pairs_(basis),
      schwarz_(schwarz_matrix(pairs_)) {}

std::vector<ShellPairTask> FockBuilder::make_tasks() const {
  std::vector<ShellPairTask> tasks;
  const int n = static_cast<int>(basis_->shell_count());
  tasks.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) + 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      tasks.push_back(ShellPairTask{i, j, pair_rank(i, j)});
    }
  }
  return tasks;
}

template <typename QuartetFn>
void FockBuilder::for_each_ket_pair(const ShellPairTask& task,
                                    QuartetFn&& fn) const {
  const double q_bra =
      schwarz_(static_cast<std::size_t>(task.si),
               static_cast<std::size_t>(task.sj));
  const int n = static_cast<int>(basis_->shell_count());
  for (int k = 0; k < n; ++k) {
    for (int l = 0; l <= k; ++l) {
      if (pair_rank(k, l) > task.rank) return;
      const double q_ket = schwarz_(static_cast<std::size_t>(k),
                                    static_cast<std::size_t>(l));
      if (screen_threshold_ > 0.0 && q_bra * q_ket < screen_threshold_) {
        continue;
      }
      fn(k, l);
    }
  }
}

std::uint64_t FockBuilder::count_task_quartets(
    const ShellPairTask& task) const {
  std::uint64_t count = 0;
  for_each_ket_pair(task, [&](int, int) { ++count; });
  return count;
}

TaskCostFeatures FockBuilder::task_cost_features(
    const ShellPairTask& task) const {
  const auto& shells = basis_->shells();
  const Shell& si = shells[static_cast<std::size_t>(task.si)];
  const Shell& sj = shells[static_cast<std::size_t>(task.sj)];
  const double bra_fn =
      static_cast<double>(si.function_count() * sj.function_count());
  const double bra_prim =
      static_cast<double>(si.exponents.size() * sj.exponents.size());

  TaskCostFeatures f;
  // Even a fully-screened task pays its ket screening scan.
  f.scan = static_cast<double>(task.rank + 1);
  for_each_ket_pair(task, [&](int k, int l) {
    const Shell& sk = shells[static_cast<std::size_t>(k)];
    const Shell& sl = shells[static_cast<std::size_t>(l)];
    const double prim =
        bra_prim *
        static_cast<double>(sk.exponents.size() * sl.exponents.size());
    const double fn =
        bra_fn *
        static_cast<double>(sk.function_count() * sl.function_count());
    f.quartets += 1.0;
    f.prim_quartets += prim;
    f.prim_fn += prim * fn;
  });
  return f;
}

double FockBuilder::estimate_task_cost(const ShellPairTask& task) const {
  // Quartet cost model (in abstract flop units): a fixed dispatch cost,
  // a per-ket-pair screening-scan term, a per-quartet term (block setup,
  // digestion), a per-primitive-quartet term (batched Boys, fixed-order
  // Hermite R recursion and ket transform — the HermiteE tables are
  // amortized by the shell-pair cache), and a
  // per-primitive-quartet-function term (the t/u/v contraction
  // loops), which defines the unit. Constants re-fitted by least squares
  // against wall-time measurements of the shell-pair-cached kernel
  // (bench_kernel --calibrate; water/water2 in STO-3G, 6-31G, 6-31G* and
  // alkane4/STO-3G, 534 tasks; non-negative active-set fit, Pearson 0.95
  // / Spearman 0.98). Versus the seed kernel the prim-quartet weight
  // collapsed (3.0 -> 0.43: tabulated Boys plus reused HermiteR
  // workspace). Only the two primitive-scaling weights are resolvable
  // from wall time; dispatch, scan, and per-quartet overheads sit below
  // timer noise and keep nominal sub-resolution values (~100ns call
  // overhead, ~2.5ns per screening lookup, ~250ns block setup + digest)
  // so that screened-out tasks still carry their real, tiny cost floor.
  //
  // Deliberately NOT re-fitted to the two-step Hermite-space kernel. A
  // --calibrate run of that kernel puts the per-prim-fn unit at about
  // 1.1e-8 s (from 4-8e-8) and the per-prim-quartet weight at 2.7e-8 to
  // 5.5e-8 s, i.e. a flatter measured cost distribution (EXPERIMENTS.md,
  // EXP-0). These constants feed every simulated EXP number, the repo
  // benchmark's task model and the bitwise bench/baselines/, so moving
  // them is a separate, re-baselined change.
  constexpr double kPerQuartet = 5.0;
  constexpr double kPerPrimQuartet = 0.43;
  constexpr double kTaskDispatch = 2.0;
  constexpr double kKetScanPerPair = 0.05;

  const TaskCostFeatures f = task_cost_features(task);
  return kTaskDispatch + kKetScanPerPair * f.scan + kPerQuartet * f.quartets +
         kPerPrimQuartet * f.prim_quartets + f.prim_fn;
}

namespace {

/// Digests quartet block (ij|kl) into J/K for every distinct index
/// permutation of the 8-fold symmetry orbit.
void digest_quartet(const Shell& si, const Shell& sj, const Shell& sk,
                    const Shell& sl, const EriBlock& block,
                    const linalg::Matrix& density, linalg::Matrix& j_accum,
                    linalg::Matrix& k_accum) {
  // Shell-level orbit of (i,j,k,l) under the 8 permutational symmetries.
  struct Perm {
    int shells[4];
    // maps orbit-member function indices back to block indices
    int order[4];
  };
  const int i = si.first_function, j = sj.first_function,
            k = sk.first_function, l = sl.first_function;
  const std::array<Perm, 8> orbit{{
      {{i, j, k, l}, {0, 1, 2, 3}},
      {{j, i, k, l}, {1, 0, 2, 3}},
      {{i, j, l, k}, {0, 1, 3, 2}},
      {{j, i, l, k}, {1, 0, 3, 2}},
      {{k, l, i, j}, {2, 3, 0, 1}},
      {{l, k, i, j}, {3, 2, 0, 1}},
      {{k, l, j, i}, {2, 3, 1, 0}},
      {{l, k, j, i}, {3, 2, 1, 0}},
  }};

  // Deduplicate orbit members that coincide (when shells repeat). Two
  // members generate the same set of (mu,nu,la,sg) tuples iff their shell
  // base offsets agree in all four slots: equal offsets mean the same
  // shell, so the slot covers the same function range either way.
  std::array<bool, 8> use{};
  for (std::size_t m = 0; m < orbit.size(); ++m) {
    use[m] = true;
    for (std::size_t prev = 0; prev < m; ++prev) {
      if (!use[prev]) continue;
      const bool same = orbit[m].shells[0] == orbit[prev].shells[0] &&
                        orbit[m].shells[1] == orbit[prev].shells[1] &&
                        orbit[m].shells[2] == orbit[prev].shells[2] &&
                        orbit[m].shells[3] == orbit[prev].shells[3];
      if (same) {
        use[m] = false;
        break;
      }
    }
  }

  const int counts[4] = {block.na(), block.nb(), block.nc(), block.nd()};
  for (std::size_t m = 0; m < orbit.size(); ++m) {
    if (!use[m]) continue;
    const Perm& perm = orbit[m];
    // Function counts as seen in this permutation's slot order.
    const int n0 = counts[perm.order[0]];
    const int n1 = counts[perm.order[1]];
    const int n2 = counts[perm.order[2]];
    const int n3 = counts[perm.order[3]];
    for (int f0 = 0; f0 < n0; ++f0) {
      for (int f1 = 0; f1 < n1; ++f1) {
        for (int f2 = 0; f2 < n2; ++f2) {
          for (int f3 = 0; f3 < n3; ++f3) {
            int fblock[4];
            fblock[perm.order[0]] = f0;
            fblock[perm.order[1]] = f1;
            fblock[perm.order[2]] = f2;
            fblock[perm.order[3]] = f3;
            const double g =
                block(fblock[0], fblock[1], fblock[2], fblock[3]);
            if (g == 0.0) continue;
            const auto mu = static_cast<std::size_t>(perm.shells[0] + f0);
            const auto nu = static_cast<std::size_t>(perm.shells[1] + f1);
            const auto la = static_cast<std::size_t>(perm.shells[2] + f2);
            const auto sg = static_cast<std::size_t>(perm.shells[3] + f3);
            // J(mu,nu) += P(la,sg) (mu nu|la sg)
            j_accum(mu, nu) += density(la, sg) * g;
            // K(mu,la) += P(nu,sg) (mu nu|la sg)
            k_accum(mu, la) += density(nu, sg) * g;
          }
        }
      }
    }
  }
}

}  // namespace

void FockBuilder::execute_task(const ShellPairTask& task,
                               const linalg::Matrix& density,
                               linalg::Matrix& j_accum,
                               linalg::Matrix& k_accum) const {
  const auto& shells = basis_->shells();
  const Shell& si = shells[static_cast<std::size_t>(task.si)];
  const Shell& sj = shells[static_cast<std::size_t>(task.sj)];
  const ShellPairData& bra = pairs_.pair(task.si, task.sj);

  for_each_ket_pair(task, [&](int k, int l) {
    const Shell& sk = shells[static_cast<std::size_t>(k)];
    const Shell& sl = shells[static_cast<std::size_t>(l)];
    const EriBlock block = eri_shell_quartet(bra, pairs_.pair(k, l));
    digest_quartet(si, sj, sk, sl, block, density, j_accum, k_accum);
  });
}

linalg::Matrix FockBuilder::combine_jk(const linalg::Matrix& j_accum,
                                       const linalg::Matrix& k_accum) {
  const std::size_t n = j_accum.rows();
  linalg::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const double jv = 0.5 * (j_accum(r, c) + j_accum(c, r));
      const double kv = 0.5 * (k_accum(r, c) + k_accum(c, r));
      g(r, c) = jv - 0.5 * kv;
    }
  }
  return g;
}

linalg::Matrix FockBuilder::build_g(const linalg::Matrix& density) const {
  const auto n = static_cast<std::size_t>(basis_->function_count());
  linalg::Matrix j_accum(n, n), k_accum(n, n);
  for (const ShellPairTask& task : make_tasks()) {
    execute_task(task, density, j_accum, k_accum);
  }
  return combine_jk(j_accum, k_accum);
}

}  // namespace emc::chem
