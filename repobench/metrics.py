"""Metric arithmetic for the repository benchmark.

Pure functions over the raw JSON workloads.cpp writes: host-speed
normalization, medians, the tail percentile, failure accounting and span
self times. Kept free of I/O so test_metrics.py can check them directly.
"""

from statistics import median

# Host-speed normalization. Each vCPU of the host this benchmark was built
# on switches between a fast and a slow state (about 1.5x apart) every few
# seconds, independently of the others (NOTES.md). workloads.cpp therefore
# times the benchmark-owned reference kernel on the workload's CPUs around
# every set-up, unit and rate sample, and every time is rescaled to the
# speed at which that kernel takes REFERENCE_MS:
#     normalized time = wall time * REFERENCE_MS / reference
#     normalized rate = rate * reference / REFERENCE_MS
REFERENCE_MS = 0.55
# The library's threads must be idle while the reference runs; above this
# median share of foreign CPU time the normalization is not trusted.
MAX_FOREIGN_SHARE = 0.15

# Percentiles tried for tail_ms, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


def _rank(p, n):
    """Nearest rank of percentile p among n samples: ceil(p/100 * n),
    at least 1, computed in integers (p has one decimal at most)."""
    return max(1, -(-int(round(p * 10)) * n // 1000))


def tail(samples):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    ranked beyond it, by the nearest-rank rule.

    Returns (percentile, value, beyond): the value is the sample of rank
    ceil(p/100 * n) in ascending order and `beyond` counts the samples
    ranked after it. Raises ValueError when no ladder percentile has
    enough samples beyond it (fewer than 20 samples).
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = _rank(p, n)
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1], beyond)
    if best is None:
        raise ValueError(
            "tail needs %d samples beyond p50; got %d samples"
            % (TAIL_MIN_BEYOND, n))
    return best


def fail_frac(attempted, wrong=0, rejected=0, shed=0):
    """Failed units over attempted units; a wrong result, a rejected
    request and a shed request each count as one failure."""
    if attempted < 1:
        raise ValueError("no units attempted")
    failed = wrong + rejected + shed
    if failed > attempted:
        raise ValueError("more failures than attempts")
    return failed / attempted


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children counted
    once, child time outside the parent ignored).

    `spans` is a list of dicts with start, end and parent (index into the
    same list, -1 for a root). Returns a list of self times in the
    spans' own unit.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start"], s["end"]
        covered = 0
        cursor = lo
        for a, b in sorted((spans[c]["start"], spans[c]["end"])
                           for c in children[i]):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


def ledger(spans, root="unit"):
    """Per-name self time summed over the spans, and the share of the
    root spans' wall time that the non-root spans' self times explain.

    Returns (self_by_name, root_total, coverage).
    """
    selfs = self_times(spans)
    by_name = {}
    root_total = 0
    for s, t in zip(spans, selfs):
        if s["name"] == root:
            root_total += s["end"] - s["start"]
        else:
            by_name[s["name"]] = by_name.get(s["name"], 0) + t
    if root_total <= 0:
        raise ValueError("no %r spans" % root)
    return by_name, root_total, sum(by_name.values()) / root_total


def normalize(times, reference_ms):
    """Rescales wall times to the reference host speed."""
    if len(times) != len(reference_ms):
        raise ValueError("one reference sample per time is required")
    return [t * REFERENCE_MS / r for t, r in zip(times, reference_ms)]


def normalize_rates(rates, reference_ms):
    """Rescales rates to the reference host speed."""
    if len(rates) != len(reference_ms):
        raise ValueError("one reference sample per rate is required")
    return [x * r / REFERENCE_MS for x, r in zip(rates, reference_ms)]


def end_to_end(raw):
    """End-to-end metrics of one untraced run, normalized to the
    reference host speed, and an info dict with the tail's percentile and
    sample counts and the wall-clock medians before normalization."""
    units = normalize(raw["unit_ms"], raw["unit_ref_ms"])
    p, tail_value, beyond = tail(units)
    metrics = {
        "setup_s": (median(normalize(raw["setup_s"], raw["setup_ref_ms"])),
                    "s"),
        "unit_ms": (median(units), "ms"),
        "tail_ms": (tail_value, "ms"),
        "ops_per_s": (median(normalize_rates(raw["rate_samples"],
                                             raw["rate_ref_ms"])), "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    info = {"tail_percentile": p, "tail_samples": len(units),
            "tail_beyond": beyond,
            "wall": {"setup_s": median(raw["setup_s"]),
                     "unit_ms": median(raw["unit_ms"]),
                     "ops_per_s": median(raw["rate_samples"])}}
    return metrics, info


# Spans whose self time the ledger reports, per workload.
LEDGER_SPANS = {
    "scf_hybrid": ("linalg.scf", "core.build_g", "pgas.get", "exec.execute",
                   "pgas.accumulate"),
    "serve_mix": ("serve.request", "serve.queue", "serve.fock", "serve.scf"),
    "sim_sweep": ("lb.lpt", "lb.semi-matching",
                  "sim.flat.static", "sim.flat.counter", "sim.flat.hier",
                  "sim.flat.ws", "sim.fattree.static", "sim.fattree.counter",
                  "sim.fattree.hier", "sim.fattree.ws"),
}
SIM_FAMILIES = ("static", "counter", "hier", "ws")

# Per-layer values workloads.cpp reports directly, with their units.
PROGRAM_LAYER_UNITS = {
    "chem.engine_build_ms.scf_hybrid": "ms",
    "chem.engine_build_ms.serve_mix": "ms",
    "chem.engine_build_ms.sim_sweep": "ms",
    "chem.quartets_per_build": "count",
    "chem.screen_survival_frac": "1",
    "chem.ns_per_quartet": "ns",
    "chem.eri_ns.ssss": "ns",
    "chem.eri_ns.psss": "ns",
    "chem.eri_ns.psps": "ns",
    "chem.eri_ns.ppss": "ns",
    "chem.eri_ns.ppps": "ns",
    "chem.eri_ns.pppp": "ns",
    "exec.utilization": "1",
    "exec.steals_per_build": "count",
    "pgas.get_bytes_per_build": "B",
    "pgas.acc_bytes_per_build": "B",
    "fock.get_ms": "ms",
    "fock.execute_ms": "ms",
    "fock.accumulate_ms": "ms",
    "serve.cache_hit_frac": "1",
    "serve.cache_misses": "count",
    "serve.cache_evictions": "count",
    "sim.events": "count",
    "sim.ns_per_event.calendar": "ns",
    "sim.ns_per_event.heap_p4096": "ns",
    "net.messages": "count",
}


def _durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def per_layer(raw):
    """Per-layer metrics of one traced (--ledger) run: the program's own
    values plus everything derived from the spans. Returns
    {name: (value, unit)}."""
    layer = raw["layer"]
    out = {k: (layer[k], u) for k, u in PROGRAM_LAYER_UNITS.items()}
    ns_per_ms = 1e6
    for wl, part in raw["workloads"].items():
        first, last = part["first_span"], part["last_span"]
        spans = [dict(s, parent=s["parent"] - first if s["parent"] >= 0
                      else -1)
                 for s in raw["spans"][first:last]]
        by_name, _, coverage = ledger(spans)
        units = sum(1 for s in spans if s["name"] == "unit")
        out["ledger.%s.coverage" % wl] = (coverage, "1")
        for name in LEDGER_SPANS[wl]:
            out["ledger.%s.%s_ms" % (wl, name)] = (
                by_name.get(name, 0) / units / ns_per_ms, "ms")
        traced = median(part["traced_ms"])
        untraced = median(part["untraced_ms"])
        out["trace.%s.traced_unit_ms" % wl] = (traced, "ms")
        out["trace.%s.untraced_unit_ms" % wl] = (untraced, "ms")
        out["trace.%s.overhead" % wl] = (traced / untraced - 1.0, "1")

        selfs = self_times(spans)
        if wl == "scf_hybrid":
            builds = _durations(spans, "core.build_g")
            scf_self = [t for s, t in zip(spans, selfs)
                        if s["name"] == "linalg.scf"]
            out["core.build_g_ms"] = (median(builds) / ns_per_ms, "ms")
            out["core.builds_per_scf"] = (len(builds) / units, "count")
            out["scf.self_ms"] = (median(scf_self) / ns_per_ms, "ms")
        elif wl == "serve_mix":
            queue = [d / ns_per_ms for d in _durations(spans, "serve.queue")]
            overhead = [t for s, t in zip(spans, selfs)
                        if s["name"] == "serve.request"]
            out["serve.queue_ms.p50"] = (_nearest_rank(queue, 50.0), "ms")
            out["serve.queue_ms.p99"] = (_nearest_rank(queue, 99.0), "ms")
            for kind in ("fock", "scf"):
                out["serve.service_ms." + kind] = (
                    median(_durations(spans, "serve." + kind)) / ns_per_ms,
                    "ms")
            out["serve.overhead_ms"] = (median(overhead) / ns_per_ms, "ms")
        elif wl == "sim_sweep":
            def per_sweep(name):
                return sum(_durations(spans, name)) / units

            for fam in SIM_FAMILIES:
                out["sim.ns_per_event." + fam] = (
                    per_sweep("sim.flat." + fam)
                    / layer["sim.events.flat." + fam], "ns")
            flat = sum(per_sweep("sim.flat." + f) for f in SIM_FAMILIES)
            fat = sum(per_sweep("sim.fattree." + f) for f in SIM_FAMILIES)
            out["net.ns_per_msg"] = ((fat - flat) / layer["net.messages"],
                                     "ns")
            for alg in ("lpt", "semi-matching"):
                out["lb.balance_ms." + alg] = (
                    per_sweep("lb." + alg) / ns_per_ms, "ms")
    return out
