// Repository benchmark program: runs one workload through the library's
// public API, checks every result against an oracle, and writes the raw
// timings as JSON for run.py, which turns them into metrics.
//
//   repobench_workloads --workload W --seed S --seconds T --out PATH
//   repobench_workloads --ledger --seed S --out PATH
//
// Workloads (see NOTES.md for why each one exists):
//   scf_hybrid  RHF water2/6-31G to convergence through
//               core::DistributedFockBuilder, 2 ranks x 2 threads, work
//               stealing between and within ranks. Unit: one SCF.
//   serve_mix   closed loop against one serve::ScfServer (2 workers,
//               client window 4, LRU cache of 4 over 6 keys, 90% Fock
//               builds / 10% SCF, two tenants). Unit: one request.
//   sim_sweep   water27/STO-3G analytic task model replayed under six
//               execution models at P in {64, 256, 1024, 4096} on the flat
//               network and a 2:1 fat-tree. Unit: one full sweep.
//
// Every run does a fixed amount of work: the unit count is a function of
// --seconds only (kUnitsPerSecond below), never of elapsed time, so two
// runs with the same arguments do identical work. The seed generates the
// inputs the library receives: the request sequence and the steal seeds.
//
// Each workload runs on as many CPUs as it keeps busy, and a benchmark-
// owned reference kernel is timed on those CPUs before every set-up and
// every unit; run.py rescales the times by it (host-speed normalization,
// see NOTES.md).
//
// --ledger is the traced run. It runs every workload, alternating traced
// and untraced units, records spans around the calls into each layer
// (span_recorder.hpp) and reads the library's own counters; run.py
// derives the per-layer ledger from them. Timed runs record no spans.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chem/basis.hpp"
#include "chem/eri.hpp"
#include "chem/fock.hpp"
#include "chem/molecule.hpp"
#include "chem/scf.hpp"
#include "chem/shell_pair.hpp"
#include "core/distributed_fock.hpp"
#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "pgas/runtime.hpp"
#include "serve/server.hpp"
#include "sim/simulators.hpp"
#include "span_recorder.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace emc;
using repobench::ScopedSpan;
using repobench::SpanRecorder;
using Clock = std::chrono::steady_clock;

// ---- Fixed configuration -------------------------------------------------

constexpr int kHybridRanks = 2;
constexpr int kHybridThreads = 2;
constexpr int kServeWorkers = 2;
constexpr int kServeWindow = 4;
constexpr std::size_t kServeQueueCapacity = 8;  // >= window: never rejects
constexpr std::size_t kServeCacheCapacity = 4;
constexpr int kSetupRepeats = 5;
constexpr double kEnergyTolerance = 1e-8;  // Eh, vs sequential run_rhf

// Units per second of --seconds. The count, not the clock, ends a run.
// Sized so a run measures about --seconds on the 4-vCPU host of NOTES.md
// when it runs at its slow end (SCF 0.45 s, 60 requests/s, sweep 80 ms),
// and less when it runs faster.
constexpr double kScfUnitsPerSecond = 2.0;
constexpr double kServeUnitsPerSecond = 60.0;
constexpr double kSimUnitsPerSecond = 12.0;

const std::array<const char*, 6> kServeMolecules{
    "h2", "water", "methane", "water", "methane", "water2"};
const std::array<const char*, 6> kServeBases{
    "6-31g", "sto-3g", "sto-3g", "6-31g", "6-31g", "sto-3g"};
// One block of the request sequence: per key, 9 Fock builds and 1 SCF.
constexpr int kServeBlock = 60;

const std::array<int, 4> kSimProcs{64, 256, 1024, 4096};
constexpr int kSimProcsPerNode = 16;
// The family of each sweep model, in SimSweep::run_cell order:
// static-block, static-lpt, static-semimatch, counter(4), hier(64, 4), ws.
// The ledger groups cells by family.
const std::array<const char*, 6> kSimFamily{"static", "static", "static",
                                            "counter", "hier", "ws"};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double median(std::span<const double> v) { return percentile(v, 0.5); }

/// CPUs this process may run on, in increasing order.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread (and every thread it creates later) to
/// `cpus`.
void restrict_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
    throw std::runtime_error("cannot set CPU affinity");
  }
}

volatile double g_reference_sink = 0.0;

/// Benchmark-owned reference work: a fixed floating-point kernel on a
/// small working set (matrix product and exponentials). It shares no
/// code with the library, so a library change cannot move it.
void reference_work() {
  constexpr int n = 40;
  std::array<double, n * n> a{}, b{}, c{};
  for (int i = 0; i < n * n; ++i) {
    a[i] = 1.0 + 1e-3 * i;
    b[i] = 1.0 - 1e-4 * i;
  }
  for (int it = 0; it < 8; ++it) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double s = 0.0;
        for (int k = 0; k < n; ++k) s += a[i * n + k] * b[k * n + j];
        c[i * n + j] = std::exp(-1e-6 * s);
      }
    }
    std::swap(a, c);
  }
  g_reference_sink = a[7];
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host speed right now on `cpus`: the reference work runs on one thread
/// pinned to each CPU at once; each thread keeps the median of three
/// rounds, and the result is the time at the CPUs' mean speed (harmonic
/// mean of the thread times), in ms.
///
/// Appends to `foreign_share` the share of the process's CPU time that
/// threads other than the reference threads and their caller used
/// meanwhile. The library's threads must be idle while the host is
/// sampled: a busy one would slow the reference and flatter the
/// normalized times. Thread start and exit alone account for a few
/// percent.
double reference_ms(const std::vector<int>& cpus,
                    std::vector<double>& foreign_share) {
  const std::size_t n = cpus.size();
  std::vector<double> ms(n), own_cpu(n);
  const double process_before = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double caller_before = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const auto body = [&](std::size_t t) {
    const double cpu_before = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    restrict_to({cpus[t]});
    std::array<double, 3> rounds{};
    for (double& r : rounds) {
      const auto t0 = Clock::now();
      reference_work();
      r = ms_between(t0, Clock::now());
    }
    std::sort(rounds.begin(), rounds.end());
    ms[t] = rounds[1];
    own_cpu[t] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu_before;
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
  const double process = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process_before;
  const double own = std::accumulate(own_cpu.begin(), own_cpu.end(), 0.0) +
                     cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - caller_before;
  foreign_share.push_back((process - own) / process);
  double rate = 0.0;
  for (const double m : ms) rate += 1.0 / m;
  return static_cast<double>(n) / rate;
}

/// Host speed over each timed interval: the mean of the samples taken
/// just before and just after it (`bounds` has one sample per boundary).
std::vector<double> bracket(const std::vector<double>& bounds) {
  std::vector<double> out;
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    out.push_back(0.5 * (bounds[i - 1] + bounds[i]));
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Counts of attempted and failed units. A wrong result, a rejected and
/// a shed request each count as one failed unit.
struct Outcomes {
  std::int64_t attempted = 0;
  std::int64_t wrong = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t failed() const { return wrong + rejected + shed; }
};

/// What a timed run reports. ops_per_s is the median of rate_samples.
struct TimedRun {
  std::vector<double> setup_s;
  std::vector<double> unit_ms;
  std::vector<double> rate_samples;
  // Host speed (reference_ms) around each set-up, unit and rate sample.
  std::vector<double> setup_ref_ms;
  std::vector<double> unit_ref_ms;
  std::vector<double> rate_ref_ms;
  std::vector<double> foreign_share;  // see reference_ms()
  Outcomes outcomes;
  std::vector<std::string> errors;
};

// ---- scf_hybrid ------------------------------------------------------------

/// The sequential reference SCF the hybrid runs are checked against.
struct ScfReference {
  double energy = 0.0;
  int iterations = 0;
  linalg::Matrix density;
};

ScfReference reference_scf(const std::string& molecule,
                           const std::string& basis_name) {
  const chem::Molecule mol = chem::make_named_molecule(molecule);
  const chem::BasisSet basis = chem::BasisSet::build(mol, basis_name);
  const chem::ScfResult r = chem::run_rhf(mol, basis);
  if (!r.converged) {
    throw std::runtime_error("reference SCF did not converge: " + molecule);
  }
  return {r.energy, r.iterations, r.density};
}

/// Per-build observations of a traced hybrid SCF.
struct HybridTrace {
  std::int64_t builds = 0;
  double utilization_sum = 0.0;
  std::int64_t steals = 0;
};

/// water2/6-31G RHF through the hybrid ranks x threads Fock builder.
/// Members are constructed in place and never move: the builder keeps
/// pointers to the basis and the runtime.
class HybridScf {
 public:
  HybridScf(std::uint64_t steal_seed, util::MetricsRegistry* metrics)
      : molecule_(chem::make_named_molecule("water2")),
        basis_(chem::BasisSet::build(molecule_, "6-31g")),
        runtime_(kHybridRanks),
        builder_(basis_, runtime_, options(steal_seed, metrics)),
        metrics_(metrics) {}

  HybridScf(const HybridScf&) = delete;
  HybridScf& operator=(const HybridScf&) = delete;

  /// One SCF to convergence. With a recorder, spans the SCF and each
  /// build_g, and splits each build into the get / execute / accumulate
  /// phases the builder reports through its metrics registry.
  chem::ScfResult run(SpanRecorder* rec, int unit, HybridTrace* trace) {
    const chem::GBuilder g = [&](const linalg::Matrix& density) {
      const ScopedSpan span(rec, "core.build_g", unit);
      const Phases before = phases();
      linalg::Matrix out = builder_.build_g(density);
      if (rec != nullptr) {
        const Phases after = phases();
        std::int64_t t = rec->start_of(span.id());
        const auto child = [&](const char* name, double seconds) {
          const auto ns = static_cast<std::int64_t>(seconds * 1e9);
          rec->add(name, t, t + ns, span.id(), unit);
          t += ns;
        };
        child("pgas.get", after.get - before.get);
        child("exec.execute", after.execute - before.execute);
        child("pgas.accumulate", after.accumulate - before.accumulate);
      }
      if (trace != nullptr) {
        ++trace->builds;
        trace->utilization_sum += builder_.last_stats().utilization();
        trace->steals += builder_.last_stats().total_steals();
      }
      return out;
    };
    const ScopedSpan span(rec, "linalg.scf", unit);
    return chem::run_rhf_with_builder(molecule_, basis_, g);
  }

  int builds() const { return builder_.builds(); }

 private:
  struct Phases {
    double get = 0.0, execute = 0.0, accumulate = 0.0;
  };
  Phases phases() const {
    if (metrics_ == nullptr) return {};
    return {metrics_->gauge("fock/phase_get_seconds").value(),
            metrics_->gauge("fock/phase_execute_seconds").value(),
            metrics_->gauge("fock/phase_accumulate_seconds").value()};
  }

  static core::DistributedFockOptions options(std::uint64_t steal_seed,
                                              util::MetricsRegistry* m) {
    core::DistributedFockOptions o;
    o.model = core::ExecModel::kWorkStealing;
    o.threads = kHybridThreads;
    o.intra_policy = core::IntraPolicy::kWorkStealing;
    o.steal.seed = steal_seed;
    o.metrics = m;
    return o;
  }

  chem::Molecule molecule_;
  chem::BasisSet basis_;
  pgas::Runtime runtime_;
  core::DistributedFockBuilder builder_;
  util::MetricsRegistry* metrics_;
};

bool scf_matches(const chem::ScfResult& r, const ScfReference& ref) {
  return r.converged && r.iterations == ref.iterations &&
         std::abs(r.energy - ref.energy) <= kEnergyTolerance;
}

std::uint64_t hybrid_steal_seed(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x5cf0ULL;
  return splitmix64(s);
}

TimedRun run_scf_hybrid(std::uint64_t seed, int units,
                        const std::vector<int>& cpus) {
  TimedRun out;
  const ScfReference ref = reference_scf("water2", "6-31g");
  const std::uint64_t steal_seed = hybrid_steal_seed(seed);

  std::unique_ptr<HybridScf> scf;
  std::vector<double> bounds{reference_ms(cpus, out.foreign_share)};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    scf.reset();
    const auto t0 = Clock::now();
    scf = std::make_unique<HybridScf>(steal_seed, nullptr);
    const chem::ScfResult warm = scf->run(nullptr, -1, nullptr);
    out.setup_s.push_back(seconds_since(t0));
    bounds.push_back(reference_ms(cpus, out.foreign_share));
    if (!scf_matches(warm, ref)) out.errors.push_back("warm-up SCF mismatch");
  }
  out.setup_ref_ms = bracket(bounds);

  bounds = {bounds.back()};
  for (int u = 0; u < units; ++u) {
    const int builds_before = scf->builds();
    const auto t0 = Clock::now();
    const chem::ScfResult r = scf->run(nullptr, u, nullptr);
    const double ms = ms_between(t0, Clock::now());
    bounds.push_back(reference_ms(cpus, out.foreign_share));
    out.unit_ms.push_back(ms);
    out.rate_samples.push_back((scf->builds() - builds_before) / (ms * 1e-3));
    ++out.outcomes.attempted;
    if (!scf_matches(r, ref)) ++out.outcomes.wrong;
  }
  out.unit_ref_ms = bracket(bounds);
  out.rate_ref_ms = out.unit_ref_ms;
  return out;
}

// ---- serve_mix -------------------------------------------------------------

using serve::JobRequest;
using serve::JobResult;

/// The request sequence: blocks of kServeBlock requests with a fixed
/// composition (every key 9 x kFockBuild + 1 x kScf, tenants alternating)
/// in a seeded order, so every seed does the same work in another order.
std::vector<JobRequest> make_requests(std::uint64_t seed, int count) {
  std::vector<JobRequest> block;
  for (int k = 0; k < static_cast<int>(kServeMolecules.size()); ++k) {
    for (int j = 0; j < kServeBlock / 6; ++j) {
      JobRequest r;
      r.molecule = kServeMolecules[static_cast<std::size_t>(k)];
      r.basis = kServeBases[static_cast<std::size_t>(k)];
      r.kind = j == 0 ? JobRequest::Kind::kScf : JobRequest::Kind::kFockBuild;
      r.tenant = (j + k) % 2;
      r.priority = r.tenant;
      block.push_back(r);
    }
  }
  std::uint64_t state = seed ^ 0x5e7eULL;
  std::vector<JobRequest> out;
  while (static_cast<int>(out.size()) < count) {
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[splitmix64(state) % (i + 1)]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(static_cast<std::size_t>(count));
  return out;
}

std::string key_of(const JobRequest& r) {
  return r.molecule + "/" + r.basis +
         (r.kind == JobRequest::Kind::kScf ? "/scf" : "/fock");
}

/// Result bits per (molecule, basis, kind), recorded once per process on
/// a fresh server; SCF energies are also checked against run_rhf.
struct ServeOracle {
  std::map<std::string, std::uint64_t> bits;
  std::vector<std::string> errors;

  bool matches(const JobRequest& req, const JobResult& r) const {
    const auto it = bits.find(key_of(req));
    return r.ok && it != bits.end() && it->second == result_bits(req, r);
  }
  static std::uint64_t result_bits(const JobRequest& req,
                                   const JobResult& r) {
    return req.kind == JobRequest::Kind::kScf ? bits_of(r.energy) : r.g_digest;
  }
};

serve::ServerOptions serve_options() {
  serve::ServerOptions o;
  o.workers = kServeWorkers;
  o.queue_capacity = kServeQueueCapacity;
  o.cache_capacity = kServeCacheCapacity;
  o.overload = serve::ServerOptions::Overload::kReject;
  return o;
}

ServeOracle record_serve_oracle() {
  ServeOracle oracle;
  serve::ScfServer server(serve_options());
  server.start();
  for (std::size_t k = 0; k < kServeMolecules.size(); ++k) {
    for (const auto kind :
         {JobRequest::Kind::kFockBuild, JobRequest::Kind::kScf}) {
      JobRequest req;
      req.molecule = kServeMolecules[k];
      req.basis = kServeBases[k];
      req.kind = kind;
      const JobResult r = server.submit(req).result.get();
      if (!r.ok) {
        oracle.errors.push_back("oracle job failed: " + key_of(req));
        continue;
      }
      if (kind == JobRequest::Kind::kScf) {
        const ScfReference ref = reference_scf(req.molecule, req.basis);
        if (!r.scf_converged ||
            std::abs(r.energy - ref.energy) > kEnergyTolerance) {
          oracle.errors.push_back("served SCF energy differs from run_rhf: " +
                                  key_of(req));
        }
      }
      oracle.bits[key_of(req)] = ServeOracle::result_bits(req, r);
    }
  }
  server.stop();
  return oracle;
}

/// Closed loop: keeps kServeWindow requests outstanding, submitting the
/// next one as soon as one completes. The client polls its in-flight
/// futures so each completion is timed when it happens, not when an older
/// request finishes. With a recorder, each request gets a serve.request
/// span with the server-reported queue and service intervals as children.
/// Returns each request's latency in ms, in completion order.
std::vector<double> serve_loop(serve::ScfServer& server,
                               std::span<const JobRequest> requests,
                               const ServeOracle& oracle, Outcomes& outcomes,
                               SpanRecorder* rec, int unit_base) {
  struct InFlight {
    std::size_t index;
    Clock::time_point submitted;
    std::int64_t start_ns;
    bool admitted;
    std::future<JobResult> result;
  };
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  std::vector<InFlight> inflight;
  std::size_t next = 0;
  std::size_t turn = 0;
  while (next < requests.size() || !inflight.empty()) {
    while (static_cast<int>(inflight.size()) < kServeWindow &&
           next < requests.size()) {
      const std::int64_t start_ns = rec != nullptr ? rec->now_ns() : 0;
      const auto submitted = Clock::now();
      serve::ScfServer::Submission sub = server.submit(requests[next]);
      ++outcomes.attempted;
      if (sub.admit == serve::ScfServer::Admit::kRejected) {
        ++outcomes.rejected;
      } else if (sub.admit == serve::ScfServer::Admit::kShedNew) {
        ++outcomes.shed;
      }
      const bool admitted = sub.admit == serve::ScfServer::Admit::kAccepted;
      inflight.push_back(
          {next, submitted, start_ns, admitted, std::move(sub.result)});
      ++next;
    }
    bool progressed = false;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const auto done = Clock::now();
      const JobResult r = it->result.get();
      const JobRequest& req = requests[it->index];
      if (!it->admitted) {
        // already counted as rejected or shed at admission
      } else if (r.error == "shed") {
        ++outcomes.shed;  // a queued victim shed by a later arrival
      } else if (!oracle.matches(req, r)) {
        ++outcomes.wrong;
      }
      latencies.push_back(ms_between(it->submitted, done));
      if (rec != nullptr) {
        const int unit = unit_base + static_cast<int>(it->index);
        const std::int64_t end_ns = rec->now_ns();
        const int root = rec->add("unit", it->start_ns, end_ns, -1, unit);
        const int id =
            rec->add("serve.request", it->start_ns, end_ns, root, unit);
        const auto q = static_cast<std::int64_t>(r.queue_seconds * 1e9);
        const auto s = static_cast<std::int64_t>(r.service_seconds * 1e9);
        const std::int64_t t = it->start_ns;
        rec->add("serve.queue", t, t + q, id, unit);
        rec->add(req.kind == JobRequest::Kind::kScf ? "serve.scf"
                                                    : "serve.fock",
                 t + q, t + q + s, id, unit);
      }
      it = inflight.erase(it);
      progressed = true;
    }
    if (!progressed && !inflight.empty()) {
      inflight[turn++ % inflight.size()].result.wait_for(
          std::chrono::microseconds(250));
    }
  }
  return latencies;
}

/// The set-up's warm-up unit: a Fock build on the largest key, fixed so
/// that set-up does the same work for every seed.
JobRequest serve_warmup_request() {
  JobRequest r;
  r.molecule = "water2";
  r.basis = "sto-3g";
  return r;
}


TimedRun run_serve_mix(std::uint64_t seed, int units,
                       const std::vector<int>& cpus) {
  TimedRun out;
  const ServeOracle oracle = record_serve_oracle();
  out.errors = oracle.errors;
  const std::vector<JobRequest> requests = make_requests(seed, units);
  const JobRequest warmup = serve_warmup_request();

  std::unique_ptr<serve::ScfServer> server;
  std::vector<double> bounds{reference_ms(cpus, out.foreign_share)};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<serve::ScfServer>(serve_options());
    server->start();
    const JobResult warm = server->submit(warmup).result.get();
    out.setup_s.push_back(seconds_since(t0));
    bounds.push_back(reference_ms(cpus, out.foreign_share));
    if (!oracle.matches(warmup, warm)) {
      out.errors.push_back("warm-up request mismatch");
    }
  }
  out.setup_ref_ms = bracket(bounds);

  // The loop pauses between blocks, with the queue drained, to sample the
  // host speed on the server's CPUs.
  bounds = {bounds.back()};
  for (std::size_t b = 0; b < requests.size(); b += kServeBlock) {
    const auto t0 = Clock::now();
    for (const double ms : serve_loop(
             *server,
             std::span<const JobRequest>(requests).subspan(b, kServeBlock),
             oracle, out.outcomes, nullptr, 0)) {
      out.unit_ms.push_back(ms);
    }
    out.rate_samples.push_back(kServeBlock / seconds_since(t0));
    bounds.push_back(reference_ms(cpus, out.foreign_share));
  }
  server->stop();
  out.rate_ref_ms = bracket(bounds);
  for (std::size_t i = 0; i < out.unit_ms.size(); ++i) {
    out.unit_ref_ms.push_back(out.rate_ref_ms[i / kServeBlock]);
  }
  return out;
}

// ---- sim_sweep -------------------------------------------------------------

/// Per-family simulator work of one sweep (for the ledger).
struct SweepCounts {
  std::map<std::string, std::int64_t> events;  // key "<net>.<family>"
  std::int64_t messages = 0;                   // fat-tree cells
};

class SimSweep {
 public:
  explicit SimSweep(std::uint64_t steal_seed)
      : model_(core::build_task_model("water27")), steal_seed_(steal_seed) {
    fat_tree_.topology = net::TopologyKind::kFatTree;
    fat_tree_.oversubscription = 2;
    fat_tree_.task_payload_bytes = core::mean_task_comm_bytes(model_);
  }

  std::size_t task_count() const { return model_.task_count(); }

  /// One full sweep; returns every cell's makespan in a fixed order.
  std::vector<double> sweep(SpanRecorder* rec, int unit,
                            SweepCounts* counts) {
    std::vector<double> makespans;
    for (const int p : kSimProcs) {
      lb::Assignment lpt;
      {
        const ScopedSpan span(rec, "lb.lpt", unit);
        lpt = lb::lpt_assignment(model_.costs, p);
      }
      lb::Assignment semi;
      {
        const ScopedSpan span(rec, "lb.semi-matching", unit);
        semi = core::balance_tasks(model_, "semi-matching", p).assignment;
      }
      const lb::Assignment block = lb::block_assignment(task_count(), p);
      for (const bool fat : {false, true}) {
        sim::MachineConfig m;
        m.n_procs = p;
        m.procs_per_node = kSimProcsPerNode;
        if (fat) m.network = fat_tree_;
        for (std::size_t i = 0; i < kSimFamily.size(); ++i) {
          const sim::SimResult r =
              run_cell(m, i, block, lpt, semi, rec, unit, fat);
          makespans.push_back(r.makespan);
          if (counts != nullptr) {
            counts->events[std::string(fat ? "fattree." : "flat.") +
                           kSimFamily[i]] += r.events_processed;
            if (fat) counts->messages += r.net_messages;
          }
        }
      }
    }
    return makespans;
  }

  /// The P = 4096 flat cells under the given event scheduler; returns
  /// (wall seconds, events, makespans).
  std::tuple<double, std::int64_t, std::vector<double>> rerun_largest(
      sim::SchedulerKind scheduler) {
    const int p = kSimProcs.back();
    const lb::Assignment lpt = lb::lpt_assignment(model_.costs, p);
    const lb::Assignment semi =
        core::balance_tasks(model_, "semi-matching", p).assignment;
    const lb::Assignment block = lb::block_assignment(task_count(), p);
    sim::MachineConfig m;
    m.n_procs = p;
    m.procs_per_node = kSimProcsPerNode;
    m.scheduler = scheduler;
    std::int64_t events = 0;
    std::vector<double> makespans;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSimFamily.size(); ++i) {
      const sim::SimResult r =
          run_cell(m, i, block, lpt, semi, nullptr, -1, false);
      events += r.events_processed;
      makespans.push_back(r.makespan);
    }
    return {seconds_since(t0), events, makespans};
  }

 private:
  sim::SimResult run_cell(const sim::MachineConfig& m, std::size_t model,
                          const lb::Assignment& block,
                          const lb::Assignment& lpt,
                          const lb::Assignment& semi, SpanRecorder* rec,
                          int unit, bool fat) {
    static const std::array<const char*, 6> kFlatSpans{
        "sim.flat.static", "sim.flat.static", "sim.flat.static",
        "sim.flat.counter", "sim.flat.hier", "sim.flat.ws"};
    static const std::array<const char*, 6> kFatSpans{
        "sim.fattree.static", "sim.fattree.static", "sim.fattree.static",
        "sim.fattree.counter", "sim.fattree.hier", "sim.fattree.ws"};
    const ScopedSpan span(rec, (fat ? kFatSpans : kFlatSpans)[model], unit);
    const std::span<const double> costs(model_.costs);
    switch (model) {
      case 0: return sim::simulate_static(m, costs, block);
      case 1: return sim::simulate_static(m, costs, lpt);
      case 2: return sim::simulate_static(m, costs, semi);
      case 3: return sim::simulate_counter(m, costs, 4);
      case 4: return sim::simulate_hierarchical_counter(m, costs, 64, 4);
      default: {
        sim::StealOptions steal;
        steal.seed = steal_seed_;
        return sim::simulate_work_stealing(m, costs, block, steal);
      }
    }
  }

  core::TaskModel model_;
  net::NetworkConfig fat_tree_;
  std::uint64_t steal_seed_;
};

std::uint64_t sim_steal_seed(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x51aULL;
  return splitmix64(s);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return bits_of(x) == bits_of(y);
         });
}

TimedRun run_sim_sweep(std::uint64_t seed, int units,
                       const std::vector<int>& cpus) {
  TimedRun out;
  const std::uint64_t steal_seed = sim_steal_seed(seed);
  std::unique_ptr<SimSweep> sweep;
  std::vector<double> first;
  std::vector<double> bounds{reference_ms(cpus, out.foreign_share)};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sweep.reset();
    const auto t0 = Clock::now();
    sweep = std::make_unique<SimSweep>(steal_seed);
    std::vector<double> warm = sweep->sweep(nullptr, -1, nullptr);
    out.setup_s.push_back(seconds_since(t0));
    bounds.push_back(reference_ms(cpus, out.foreign_share));
    if (first.empty()) {
      first = std::move(warm);
    } else if (!same_bits(first, warm)) {
      out.errors.push_back("warm-up sweep differs between set-ups");
    }
  }
  out.setup_ref_ms = bracket(bounds);

  bounds = {bounds.back()};
  for (int u = 0; u < units; ++u) {
    SweepCounts counts;
    const auto t0 = Clock::now();
    const std::vector<double> makespans = sweep->sweep(nullptr, u, &counts);
    const double ms = ms_between(t0, Clock::now());
    bounds.push_back(reference_ms(cpus, out.foreign_share));
    out.unit_ms.push_back(ms);
    std::int64_t events = 0;
    for (const auto& [family, n] : counts.events) events += n;
    out.rate_samples.push_back(static_cast<double>(events) / (ms * 1e-3));
    ++out.outcomes.attempted;
    if (!same_bits(first, makespans)) ++out.outcomes.wrong;
  }
  out.unit_ref_ms = bracket(bounds);
  out.rate_ref_ms = out.unit_ref_ms;
  return out;
}

// ---- Output ----------------------------------------------------------------

void write_array(util::JsonWriter& w, const std::string& key,
                 const std::vector<double>& values) {
  w.begin_array(key);
  for (const double v : values) w.value(v);
  w.end_array();
}

void write_timed(std::ostream& os, const std::string& workload,
                 std::uint64_t seed, const TimedRun& run) {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("workload", workload);
  w.field("seed", seed);
  w.field("correct", run.errors.empty());
  write_array(w, "setup_s", run.setup_s);
  write_array(w, "unit_ms", run.unit_ms);
  write_array(w, "rate_samples", run.rate_samples);
  write_array(w, "setup_ref_ms", run.setup_ref_ms);
  write_array(w, "unit_ref_ms", run.unit_ref_ms);
  write_array(w, "rate_ref_ms", run.rate_ref_ms);
  w.field("reference_foreign_share", median(run.foreign_share));
  w.field("attempted", run.outcomes.attempted);
  w.field("wrong", run.outcomes.wrong);
  w.field("rejected", run.outcomes.rejected);
  w.field("shed", run.outcomes.shed);
  w.field("peak_rss_mb", peak_rss_mb());
  w.end_object();
  os << '\n';
  for (const std::string& e : run.errors) std::cerr << "error: " << e << '\n';
}

// ---- Workload sizes --------------------------------------------------------

/// Units a timed run does for --seconds: at least 20, so that tail_ms has
/// 10 samples beyond p50; whole blocks of requests for serve_mix.
int units_for(const std::string& workload, int seconds) {
  const auto scaled = [&](double per_second) {
    return std::max(20, static_cast<int>(std::lround(seconds * per_second)));
  };
  if (workload == "scf_hybrid") return scaled(kScfUnitsPerSecond);
  if (workload == "sim_sweep") return scaled(kSimUnitsPerSecond);
  const int requests = scaled(kServeUnitsPerSecond);
  return (requests + kServeBlock - 1) / kServeBlock * kServeBlock;
}

int threads_of(const std::string& workload) {
  if (workload == "scf_hybrid") return kHybridRanks * kHybridThreads;
  if (workload == "serve_mix") return kServeWorkers + 1;  // + the client
  return 1;
}

/// CPUs a workload keeps busy: the serve client mostly sleeps.
int busy_cpus(const std::string& workload) {
  if (workload == "serve_mix") return kServeWorkers;
  return threads_of(workload);
}

// ---- Traced ledger run -----------------------------------------------------

/// Per-layer values the library reports itself (counters, registry reads,
/// isolated probes); span-derived times are computed by run.py.
using Layer = std::map<std::string, double>;

volatile double g_sink = 0.0;  // keeps probed kernel results alive

/// Median wall ns of one eri_shell_quartet call per angular class, over
/// an evenly spaced sample of the basis's surviving canonical quartets.
void eri_class_probe(const chem::FockBuilder& fock, Layer& layer) {
  static const std::map<std::pair<int, int>, const char*> kClass{
      {{0, 0}, "ssss"}, {{1, 0}, "psss"}, {{1, 1}, "psps"},
      {{2, 0}, "ppss"}, {{2, 1}, "ppps"}, {{2, 2}, "pppp"}};
  const auto& shells = fock.basis().shells();
  const auto& pairs = fock.shell_pairs();
  const auto& q = fock.schwarz();
  const int n = static_cast<int>(shells.size());
  std::map<std::string, std::vector<std::array<int, 4>>> quartets;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      for (int k = 0; k <= i; ++k) {
        for (int l = 0; l <= k; ++l) {
          if (chem::pair_rank(k, l) > chem::pair_rank(i, j)) break;
          if (q(i, j) * q(k, l) < fock.screen_threshold()) continue;
          const int pb = shells[i].l + shells[j].l;
          const int pk = shells[k].l + shells[l].l;
          if (shells[i].l > 1 || shells[j].l > 1 || shells[k].l > 1 ||
              shells[l].l > 1) {
            continue;
          }
          const auto it = kClass.find({std::max(pb, pk), std::min(pb, pk)});
          quartets[it->second].push_back({i, j, k, l});
        }
      }
    }
  }
  constexpr std::size_t kSample = 200;
  constexpr int kRepeats = 8;
  for (const auto& [key, cls] : kClass) {
    const auto found = quartets.find(cls);
    std::vector<double> ns;
    if (found != quartets.end()) {
      const auto& qs = found->second;
      const std::size_t step = std::max<std::size_t>(1, qs.size() / kSample);
      for (std::size_t s = 0; s < qs.size(); s += step) {
        const auto& [i, j, k, l] = qs[s];
        const auto t0 = Clock::now();
        for (int r = 0; r < kRepeats; ++r) {
          const chem::EriBlock b =
              chem::eri_shell_quartet(pairs.pair(i, j), pairs.pair(k, l));
          g_sink = b(0, 0, 0, 0);
        }
        const double elapsed = std::chrono::duration<double, std::nano>(
                                   Clock::now() - t0)
                                   .count();
        ns.push_back(elapsed / kRepeats);
      }
    }
    layer[std::string("chem.eri_ns.") + cls] = median(ns);
  }
}

template <typename Make>
double median_ms_of(int repeats, Make&& make) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    make();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

struct LedgerPart {
  std::string workload;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

void ledger_scf(std::uint64_t seed, int pairs, SpanRecorder& rec,
                Layer& layer, std::vector<LedgerPart>& parts,
                Outcomes& outcomes) {
  const ScfReference ref = reference_scf("water2", "6-31g");
  util::MetricsRegistry registry;
  HybridScf traced(hybrid_steal_seed(seed), &registry);
  HybridScf untraced(hybrid_steal_seed(seed), nullptr);
  untraced.run(nullptr, -1, nullptr);  // warm-up
  traced.run(nullptr, -1, nullptr);
  registry.reset();

  LedgerPart part{"scf_hybrid", {}, {}};
  HybridTrace trace;
  for (int u = 0; u < 2 * pairs; ++u) {
    const bool with_trace = u % 2 == 0;
    const auto t0 = Clock::now();
    chem::ScfResult r;
    if (with_trace) {
      const ScopedSpan unit(&rec, "unit", u);
      r = traced.run(&rec, u, &trace);
    } else {
      r = untraced.run(nullptr, u, nullptr);
    }
    const double ms = ms_between(t0, Clock::now());
    (with_trace ? part.traced_ms : part.untraced_ms).push_back(ms);
    ++outcomes.attempted;
    if (!scf_matches(r, ref)) ++outcomes.wrong;
  }
  parts.push_back(std::move(part));

  const auto snap = registry.snapshot();
  const auto sum_ranks = [&](const std::string& op) {
    double total = 0.0;
    for (int r = 0; r < kHybridRanks; ++r) {
      const auto it = snap.counters.find("pgas/r" + std::to_string(r) + "/" +
                                         op + "_bytes");
      if (it != snap.counters.end()) total += static_cast<double>(it->second);
    }
    return total;
  };
  const double builds = static_cast<double>(trace.builds);
  // ExecutionStats::utilization() sums busy time over a rank's threads.
  layer["exec.utilization"] = trace.utilization_sum / builds / kHybridThreads;
  layer["exec.steals_per_build"] = static_cast<double>(trace.steals) / builds;
  layer["pgas.get_bytes_per_build"] = sum_ranks("get") / builds;
  layer["pgas.acc_bytes_per_build"] = sum_ranks("acc") / builds;
  layer["fock.get_ms"] =
      1e3 * snap.gauges.at("fock/phase_get_seconds") / builds;
  layer["fock.execute_ms"] =
      1e3 * snap.gauges.at("fock/phase_execute_seconds") / builds;
  layer["fock.accumulate_ms"] =
      1e3 * snap.gauges.at("fock/phase_accumulate_seconds") / builds;

  // Chemistry probes on the same molecule and the converged density.
  const chem::Molecule mol = chem::make_named_molecule("water2");
  const chem::BasisSet basis = chem::BasisSet::build(mol, "6-31g");
  layer["chem.engine_build_ms.scf_hybrid"] =
      median_ms_of(5, [&] { chem::FockBuilder f(basis); });
  const chem::FockBuilder fock(basis);
  double quartets = 0.0, scanned = 0.0;
  for (const chem::ShellPairTask& t : fock.make_tasks()) {
    const chem::TaskCostFeatures f = fock.task_cost_features(t);
    quartets += f.quartets;
    scanned += f.scan;
  }
  layer["chem.quartets_per_build"] = quartets;
  layer["chem.screen_survival_frac"] = quartets / scanned;
  layer["chem.ns_per_quartet"] =
      1e6 * median_ms_of(3, [&] { fock.build_g(ref.density); }) / quartets;
  eri_class_probe(fock, layer);
}

void ledger_serve(std::uint64_t seed, int requests, SpanRecorder& rec,
                  Layer& layer, std::vector<LedgerPart>& parts,
                  Outcomes& outcomes) {
  const ServeOracle oracle = record_serve_oracle();
  if (!oracle.errors.empty()) outcomes.wrong += 1;
  serve::ScfServer server(serve_options());
  server.start();
  server.submit(serve_warmup_request()).result.get();
  const std::vector<JobRequest> seq = make_requests(seed, requests);
  const serve::FockCache::Stats before = server.cache().stats();

  // Alternate traced and untraced blocks of requests on one server.
  LedgerPart part{"serve_mix", {}, {}};
  for (int b = 0; b * kServeBlock < requests; ++b) {
    const bool with_trace = b % 2 == 0;
    const auto block = std::span<const JobRequest>(seq).subspan(
        static_cast<std::size_t>(b) * kServeBlock, kServeBlock);
    for (const double ms : serve_loop(server, block, oracle, outcomes,
                                      with_trace ? &rec : nullptr,
                                      b * kServeBlock)) {
      (with_trace ? part.traced_ms : part.untraced_ms).push_back(ms);
    }
  }
  parts.push_back(std::move(part));
  const serve::FockCache::Stats after = server.cache().stats();
  server.stop();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  layer["serve.cache_hit_frac"] = hits / (hits + misses);
  layer["serve.cache_misses"] = misses;
  layer["serve.cache_evictions"] =
      static_cast<double>(after.evictions - before.evictions);

  // Cold-cache engine cost: molecule + basis + FockBuilder, mean per key.
  layer["chem.engine_build_ms.serve_mix"] =
      median_ms_of(5, [&] {
        for (std::size_t k = 0; k < kServeMolecules.size(); ++k) {
          const chem::Molecule m =
              chem::make_named_molecule(kServeMolecules[k]);
          const chem::BasisSet bs = chem::BasisSet::build(m, kServeBases[k]);
          chem::FockBuilder f(bs);
        }
      }) /
      static_cast<double>(kServeMolecules.size());
}

void ledger_sim(std::uint64_t seed, int pairs, SpanRecorder& rec,
                Layer& layer, std::vector<LedgerPart>& parts,
                Outcomes& outcomes) {
  SimSweep sweep(sim_steal_seed(seed));
  const std::vector<double> first = sweep.sweep(nullptr, -1, nullptr);
  LedgerPart part{"sim_sweep", {}, {}};
  SweepCounts counts;
  for (int u = 0; u < 2 * pairs; ++u) {
    const bool with_trace = u % 2 == 0;
    const auto t0 = Clock::now();
    std::vector<double> makespans;
    if (with_trace) {
      const ScopedSpan unit(&rec, "unit", u);
      makespans = sweep.sweep(&rec, u, &counts);
    } else {
      makespans = sweep.sweep(nullptr, u, nullptr);
    }
    (with_trace ? part.traced_ms : part.untraced_ms)
        .push_back(ms_between(t0, Clock::now()));
    ++outcomes.attempted;
    if (!same_bits(first, makespans)) ++outcomes.wrong;
  }
  parts.push_back(std::move(part));

  const double sweeps = static_cast<double>(pairs);
  std::int64_t events = 0;
  for (const auto& [key, n] : counts.events) {
    events += n;
    layer["sim.events." + key] = static_cast<double>(n) / sweeps;
  }
  layer["sim.events"] = static_cast<double>(events) / sweeps;
  layer["net.messages"] = static_cast<double>(counts.messages) / sweeps;

  // Event-queue backends on the largest cells: same makespans required.
  std::vector<double> heap_s, cal_s;
  std::int64_t heap_events = 0, cal_events = 0;
  for (int r = 0; r < 3; ++r) {
    auto [hs, he, hm] = sweep.rerun_largest(sim::SchedulerKind::kBinaryHeap);
    auto [cs, ce, cm] = sweep.rerun_largest(sim::SchedulerKind::kCalendarQueue);
    heap_s.push_back(hs);
    cal_s.push_back(cs);
    heap_events = he;
    cal_events = ce;
    if (!same_bits(hm, cm)) ++outcomes.wrong;
  }
  layer["sim.ns_per_event.heap_p4096"] =
      1e9 * median(heap_s) / static_cast<double>(heap_events);
  layer["sim.ns_per_event.calendar"] =
      1e9 * median(cal_s) / static_cast<double>(cal_events);

  const chem::Molecule water27 = chem::make_named_molecule("water27");
  const chem::BasisSet basis = chem::BasisSet::build(water27, "sto-3g");
  layer["chem.engine_build_ms.sim_sweep"] =
      median_ms_of(3, [&] { chem::FockBuilder f(basis); });
}

int run_ledger(std::uint64_t seed, const std::vector<int>& cpus,
               std::ostream& os) {
  SpanRecorder rec;
  Layer layer;
  std::vector<LedgerPart> parts;
  Outcomes outcomes;
  // Fixed traced work (about 20 s on the host in NOTES.md): pairs of one
  // traced and one untraced unit, alternating so host drift hits both
  // sides alike.
  constexpr int scf_pairs = 5;
  constexpr int serve_requests = 8 * kServeBlock;
  constexpr int sim_pairs = 20;

  // Spans [first, last) of the buffer belong to each workload.
  std::map<std::string, std::pair<std::size_t, std::size_t>> span_ranges;
  const auto run_part = [&](const char* name, auto&& fn) {
    restrict_to({cpus.begin(), cpus.begin() + busy_cpus(name)});
    const std::size_t first = rec.size();
    fn();
    span_ranges[name] = {first, rec.size()};
  };
  run_part("scf_hybrid", [&] {
    ledger_scf(seed, scf_pairs, rec, layer, parts, outcomes);
  });
  run_part("serve_mix", [&] {
    ledger_serve(seed, serve_requests, rec, layer, parts, outcomes);
  });
  run_part("sim_sweep", [&] {
    ledger_sim(seed, sim_pairs, rec, layer, parts, outcomes);
  });

  util::JsonWriter w(os);
  w.begin_object();
  w.field("ledger", true);
  w.field("seed", seed);
  w.field("correct", outcomes.failed() == 0);
  w.field("attempted", outcomes.attempted);
  w.field("wrong", outcomes.wrong);
  w.field("rejected", outcomes.rejected);
  w.field("shed", outcomes.shed);
  w.field("peak_rss_mb", peak_rss_mb());
  w.begin_object("layer");
  for (const auto& [k, v] : layer) w.field(k, v);
  w.end_object();
  w.begin_object("workloads");
  for (const LedgerPart& p : parts) {
    w.begin_object(p.workload);
    w.field("first_span", std::uint64_t{span_ranges[p.workload].first});
    w.field("last_span", std::uint64_t{span_ranges[p.workload].second});
    write_array(w, "traced_ms", p.traced_ms);
    write_array(w, "untraced_ms", p.untraced_ms);
    w.end_object();
  }
  w.end_object();
  std::ostringstream spans;
  rec.write_json(spans);
  w.raw("spans", spans.str());
  w.end_object();
  os << '\n';
  return 0;
}

// ---- main ------------------------------------------------------------------

int usage() {
  std::cerr << "usage: repobench_workloads "
               "(--workload W --seconds T | --ledger) --seed S --out PATH\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_path;
  std::uint64_t seed = 1;
  int seconds = 0;
  bool ledger = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") workload = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--seconds") seconds = std::stoi(next());
      else if (a == "--out") out_path = next();
      else if (a == "--ledger") ledger = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (out_path.empty() || (!ledger && (workload.empty() || seconds < 1))) {
    return usage();
  }

  const std::vector<int> cpus = usable_cpus();
  for (const char* w : {"scf_hybrid", "serve_mix", "sim_sweep"}) {
    if ((ledger || workload == w) &&
        threads_of(w) > static_cast<int>(cpus.size())) {
      std::cerr << "refusing " << w << ": " << threads_of(w)
                << " threads > " << cpus.size() << " usable CPUs\n";
      return 3;
    }
  }

  std::ofstream os(out_path);
  if (!os) {
    std::cerr << "cannot write " << out_path << '\n';
    return 2;
  }
  try {
    if (ledger) return run_ledger(seed, cpus, os);
    TimedRun run;
    // Each workload runs on as many CPUs as it keeps busy, so the host
    // speed reference samples the CPUs that did the work.
    const std::vector<int> mine(
        cpus.begin(), cpus.begin() + busy_cpus(workload));
    restrict_to(mine);
    const int units = units_for(workload, seconds);
    if (workload == "scf_hybrid") {
      run = run_scf_hybrid(seed, units, mine);
    } else if (workload == "serve_mix") {
      run = run_serve_mix(seed, units, mine);
    } else if (workload == "sim_sweep") {
      run = run_sim_sweep(seed, units, mine);
    } else {
      std::cerr << "unknown workload " << workload << '\n';
      return 2;
    }
    write_timed(os, workload, seed, run);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
