"""The three benchmark workloads: request generation, execution and checks.

Each workload loads a different part of the package, so that a change to
one layer shows on the workload that exercises it and not on the one that
bypasses it:

* ``exact`` -- the exact report at (n, theta, b): Poisson TV of K_n and
  n - K_n, ``db_exact``, the singleton law, one conditioned prefix
  probability and the leading term. ``laws`` (the T_lm dynamic program)
  and ``distances`` do nearly all the work; ``sampling`` and ``paths`` do
  none. Cases come from the menu in ``exact_reference.json`` (n
  log-uniform in [50, 2000], theta in [0.1, 100], b in 1..10), which also
  holds the values recorded for each case.
* ``mc_sparse`` -- one Monte Carlo replicate at n in [1e5, 1e6], theta in
  [0.5, 8] (K_n << n): Feller draw, step path, X1-X5 functionals and a
  K_n draw on a sibling substream. ``sampling`` and ``paths`` do all the
  work on dense length-n arrays; ``laws`` only validates partitions.
* ``cli_mix`` -- one in-process ``ewens.cli.main(argv)`` call per request,
  one of each template per shuffled deck, covering all nine subcommands
  at small sizes. Most requests take milliseconds, so the median latency
  is per-call overhead (parsing, per-draw set-up, validation,
  formatting). Five templates -- the README regime, fclt, check and tv
  lines and the random fclt -- take about 89% of the summed latency
  (the report lists the share of each template), so throughput and the
  tail follow them. The only workload that reaches ``cli``,
  ``bruteforce``, ``regimes`` and ``checks``.

BENCHMARK.json gates mc_sparse and cli_mix only. exact runs the same way
(``--workload exact``) but is not gated: on a shared 2-vCPU VM (Intel
Xeon) its throughput drifted by up to 1.4x between runs minutes apart,
and its run-to-run spread (IQR/median over ten seeds, 0.21-0.29) sat at
the largest allowed bound.

Parameters are drawn with a seeded, randomly shifted low-discrepancy
sequence (exact cases evenly over their cost, cli templates in shuffled
fixed-composition decks), so any prefix of a request list covers the
parameter range evenly and runs with different seeds load the program
alike. Every request is generated from the seed before timing starts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ewens.cli as cli
from ewens import bruteforce, distances, laws, paths, sampling
from ewens.laws import EsfParams
from ewens.sampling import RngState

REFERENCE = Path(__file__).with_name("exact_reference.json")

_GOLDEN = (5**0.5 - 1) / 2
# Plastic-number sequence: the 2-d analogue of the golden-ratio sequence.
_G = 1.324717957244746
_ALPHA = (1.0 / _G, 1.0 / (_G * _G))


def _low_discrepancy(seed: int, count: int) -> np.ndarray:
    """count x 2 points in [0, 1)^2, shifted by a seed-derived offset."""
    shift = np.random.default_rng(seed).random(2)
    i = np.arange(1, count + 1, dtype=np.float64)[:, None]
    return (shift + i * np.asarray(_ALPHA)) % 1.0


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    # Requests replayed by the traced run: a fixed prefix of the request
    # list, so per-layer counts repeat exactly for a given seed.
    trace_n = 0

    def requests(self, seed: int, tiny: bool = False) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One request that fills lazy caches (Stirling rows, lru_caches)."""
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, rec) -> list[str]:
        """Problems with one request's output; empty when it is correct."""
        raise NotImplementedError

    def check_run(self, done: list) -> list[str]:
        """Problems only visible across the run's (req, rec) pairs."""
        return []

    def fingerprint(self, req, rec) -> bytes:
        raise NotImplementedError

    def rerun_candidate(self, req) -> bool:
        """Whether `req` is preferred for the determinism rerun."""
        return True

    def same_record(self, kept, new) -> bool:
        """Whether a repeated request's record equals the one kept for it."""
        return False

    def label(self, req) -> str:
        raise NotImplementedError

    def group(self, req) -> str:
        """The request's kind, for the share of wall time per kind."""
        return self.name

    def probes(self) -> dict[str, str]:
        """Known-defect probes run outside the timed mix: name -> status."""
        return {}

    def bytes_out(self, rec) -> int:
        return 0


# ---------------------------------------------------------------- exact


@dataclass(frozen=True)
class ExactCase:
    case_id: str
    n: int
    theta: float
    b: int
    prefix: tuple
    expect: dict


# (rel_tol, abs_tol) per summary field, no looser than tests/ uses for the
# same quantity (kn/nkn: value, lower, upper, lam, closed-form bound).
_EXACT_TOL = {
    "kn": [(1e-10, 1e-15)] * 3 + [(1e-13, 0.0), (1e-12, 0.0)],
    "nkn": [(1e-10, 1e-15)] * 3 + [(1e-13, 0.0), (1e-13, 0.0)],
    "db": [(1e-12, 1e-15), (0.0, 1e-15)],
    "singleton": (1e-11, 1e-15),
    "cjp": (1e-10, 1e-15),
    "lead": (1e-12, 1e-15),
}


def exact_report(case: ExactCase) -> tuple:
    """The exact report at one (n, theta, b); this is one request."""
    p = EsfParams(case.n, case.theta)
    return (
        distances.kn_poisson_tv(p),
        distances.nkn_poisson_tv(p),
        distances.db_exact(p, case.b),
        laws.singleton_pmf(p),
        laws.conditioned_joint_prob(p, case.b, case.prefix),
        distances.db_leading_term(p, case.b) if case.theta >= 1.0 else None,
    )


def exact_summary(rec: tuple) -> dict:
    """The recorded fields of a report: plain floats, JSON round-trippable."""
    kn, nkn, db, single, cjp, lead = rec
    probs = single.probs
    k = np.arange(probs.size, dtype=np.float64)

    def tv(r):
        t = r.exact_tv
        return [float(t.value), float(t.lower), float(t.upper), float(r.lam), float(r.upper_bound)]

    return {
        "kn": tv(kn),
        "nkn": tv(nkn),
        "db": [float(db.value), float(db.slack)],
        "singleton": [math.fsum(probs), float(k @ probs), float((k * k) @ probs)]
        + [float(x) for x in probs[:8]]
        + [float(probs[-1])],
        "cjp": [float(cjp)],
        "lead": [] if lead is None else [float(lead)],
    }


def compare_summary(got: dict, want: dict) -> list[str]:
    problems = []
    for field, tol in _EXACT_TOL.items():
        g, w = got[field], want[field]
        if len(g) != len(w):
            problems.append(f"{field}: {len(g)} values, recorded {len(w)}")
            continue
        for i, (a, b) in enumerate(zip(g, w)):
            rel, abs_ = tol[i] if isinstance(tol, list) else tol
            if not _close(a, b, rel, abs_):
                problems.append(f"{field}[{i}] = {a!r}, recorded {b!r}")
    return problems


class Exact(Workload):
    name = "exact"
    trace_n = 24

    def requests(self, seed, tiny=False):
        menu = json.loads(REFERENCE.read_text())["tiny" if tiny else "full"]
        menu.sort(key=lambda c: c["cost_ms"])
        cases = [
            ExactCase(c["id"], c["n"], c["theta"], c["b"], tuple(c["prefix"]), c["expect"])
            for c in menu
        ]
        # A shifted golden-ratio sequence over the cost-ordered menu: every
        # prefix of the request list covers the cost range evenly.
        shift = np.random.default_rng(seed).random()
        u = (shift + np.arange(1, 401) * _GOLDEN) % 1.0
        return [cases[int(x * len(cases))] for x in u]

    def warm_up(self):
        exact_report(ExactCase("warm-up", 500, 2.0, 5, (0,) * 5, {}))

    def run(self, req):
        return exact_report(req)

    def check(self, req, rec):
        problems = compare_summary(exact_summary(rec), req.expect)
        kn, _nkn, db, single, cjp, _lead = rec
        p = EsfParams(req.n, req.theta)
        mass = math.fsum(single.probs)
        if abs(mass - 1.0) > 1e-11:
            problems.append(f"singleton mass {mass!r}")
        upper = distances.dbw_bounds(p, req.b)[0]
        if upper.name != "db_tv_upper" or not -1e-15 <= db.value <= upper.value * (1 + 1e-12):
            problems.append(f"db_exact {db.value!r} outside [0, {upper.name}={upper.value!r}]")
        lo, up = distances.bh_bounds([req.theta / (req.theta + j) for j in range(req.n)])
        tv = kn.exact_tv.value
        if not lo * (1 - 1e-12) <= tv <= up * (1 + 1e-12):
            problems.append(f"K_n TV {tv!r} outside Barbour-Hall [{lo!r}, {up!r}]")
        if req.n <= 10:
            problems += _exact_oracle(p, req, db.value, single, cjp)
        return problems

    def fingerprint(self, req, rec):
        return repr(exact_summary(rec)).encode() + rec[3].probs.tobytes()

    def label(self, req):
        return f"exact[{req.case_id}:n={req.n},theta={req.theta:.6g},b={req.b}]"


def _exact_oracle(p, req, db_value, single, cjp) -> list[str]:
    """Enumeration oracle over all partitions of n (n <= 10)."""
    problems = []
    brute = bruteforce.db_bruteforce(p, req.b)
    if abs(db_value - brute) >= 1e-12:
        problems.append(f"db_exact {db_value!r} vs enumeration {brute!r}")
    direct = np.zeros(req.n + 1)
    for part, prob in bruteforce.enumerate_esf(p).entries:
        direct[int(part.counts[0])] += prob
    for k in range(req.n + 1):
        if not _close(single.prob(k), direct[k], 1e-11, 1e-15):
            problems.append(f"singleton P({k}) {single.prob(k)!r} vs enumeration {direct[k]!r}")
    want = bruteforce.joint_prefix_law(p, req.b).get(tuple(req.prefix), 0.0)
    if not _close(cjp, want, 1e-10, 1e-15):
        problems.append(f"prefix probability {cjp!r} vs enumeration {want!r}")
    return problems


# ------------------------------------------------------------ mc_sparse

_PROCESSES = ("X1", "X2", "X3", "X4", "X5")


@dataclass(frozen=True)
class McRequest:
    seed: int
    index: int
    n: int
    theta: float


class McSparse(Workload):
    name = "mc_sparse"
    trace_n = 100

    def requests(self, seed, tiny=False):
        lo, hi = (200, 2000) if tiny else (10**5, 10**6)
        pts = _low_discrepancy(seed, 4000)
        return [
            McRequest(
                seed,
                i,
                int(round(math.exp(math.log(lo) + u * math.log(hi / lo)))),
                float(math.exp(math.log(0.5) + v * math.log(16.0))),
            )
            for i, (u, v) in enumerate(pts)
        ]

    def warm_up(self):
        self.run(McRequest(0, 0, 10**5, 1.0))

    def run(self, req):
        rng = RngState(req.seed).substream(req.index)
        p = EsfParams(req.n, req.theta)
        draw = sampling.sample_feller(p, rng.substream(0), b_max=0)
        path = paths.build_path(draw.c_n)
        stats = [paths.functional_stat(path, req.theta, w) for w in _PROCESSES]
        k = sampling.sample_kn(p, rng.substream(1))
        return path, stats, k

    def check(self, req, rec):
        path, stats, k = rec
        n = req.n
        problems = []
        sizes = np.rint(np.exp(path.jump_u * math.log(n))).astype(np.int64)
        mults = np.diff(path.cum_counts, prepend=0)
        weight = int(sizes @ mults)
        if path.n != n or weight != n:
            problems.append(f"partition weight {weight}, expected n = {n}")
        if np.any(np.diff(sizes) <= 0) or np.any(mults <= 0) or sizes[0] < 1 or sizes[-1] > n:
            problems.append("block sizes or multiplicities out of range")
        if int(mults.sum()) != path.k_total:
            problems.append(f"k_total {path.k_total} != sum of multiplicities {int(mults.sum())}")
        flat = [x for pair in stats for x in pair]
        if not all(math.isfinite(x) and x >= 0.0 for x in flat):
            problems.append(f"non-finite or negative functional in {flat}")
        x4_end = paths.process_value(path, req.theta, "X4", 1.0)
        if abs(x4_end) > 1e-12:
            problems.append(f"X4(1) = {x4_end!r}, expected 0")
        if not 1 <= k <= n:
            problems.append(f"sample_kn returned {k}, outside 1..{n}")
        return problems

    def check_run(self, done):
        if not done:
            return []
        # E K_n and Var K_n as exact Bernoulli sums; the library's
        # kn_mean_var (pure Python, O(n)) is the reference for one of them.
        mean = var = 0.0
        feller = kn = 0
        for req, (path, _stats, k) in done:
            p = req.theta / (req.theta + np.arange(req.n, dtype=np.float64))
            mean += float(p.sum())
            var += float((p * (1.0 - p)).sum())
            feller += path.k_total
            kn += k
        problems = []
        req = min((r for r, _ in done), key=lambda r: r.n)
        ref_mean, ref_var = laws.kn_mean_var(EsfParams(req.n, req.theta))
        p = req.theta / (req.theta + np.arange(req.n, dtype=np.float64))
        if not (_close(float(p.sum()), ref_mean, 1e-9) and _close(float((p * (1 - p)).sum()), ref_var, 1e-9)):
            problems.append("Bernoulli sums disagree with kn_mean_var")
        se = math.sqrt(var)
        for what, total in (("Feller", feller), ("sample_kn", kn)):
            z = (total - mean) / se
            if abs(z) > 5.0:
                problems.append(f"{what} mean K_n is {z:+.2f} standard errors from kn_mean_var")
        return problems

    def fingerprint(self, req, rec):
        path, stats, k = rec
        return path.jump_u.tobytes() + path.cum_counts.tobytes() + repr((stats, k)).encode()

    def label(self, req):
        return f"mc[{req.index}:n={req.n},theta={req.theta:.6g}]"


# -------------------------------------------------------------- cli_mix


def _log_uniform(r, lo, hi) -> float:
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def _theta(r, lo=0.2, hi=50.0) -> str:
    return f"{_log_uniform(r, lo, hi):.6g}"


def _int(r, lo, hi) -> str:
    return str(int(round(_log_uniform(r, lo, hi))))


def _fmt(r) -> list[str]:
    return ["--format", "json" if r.random() < 0.5 else "csv"]


def _seed(r) -> list[str]:
    return ["--seed", str(int(r.integers(0, 2**31)))]


def _tv_oracle(r):
    n = int(r.integers(2, 13))
    return ["tv", "--n", str(n), "--theta", _theta(r), "--b", str(r.integers(1, n))] + _fmt(r)


def _bounds(r):
    argv = ["bounds", "--n", _int(r, 10, 10**4), "--theta", _theta(r), "--b", str(r.integers(1, 11))]
    if r.random() < 0.5:
        argv += ["--w", f"{r.uniform(1.5, 6.0):.3g}"]
    if r.random() < 0.25:
        argv += ["--appendix"]
    return argv + _fmt(r)


def _regime(r):
    exponent = str(r.choice(["0.5", "1", "1.5"]))
    return ["regime", "--coeff", _theta(r, 0.5, 2.0), "--exponent", exponent,
            "--n", _int(r, 100, 1000), "--mc", "1000"] + _seed(r)


def _fclt(r):
    which = str(r.choice(_PROCESSES))
    return ["fclt", "--which", which, "--stat", str(r.choice(["sup", "l2"])),
            "--n", _int(r, 10**3, 10**4), "--theta", _theta(r, 0.5, 5.0),
            "--m", "1000", "--ref-m", "1000", "--grid-m", "1024"] + _seed(r)


def _fixed(text):
    return lambda r: text.split()


# (name, argv builder); a deck holds one request of each. README lines get
# the --sampler / --theta they lack; the README fclt line runs at n = 1e4,
# m = 1000 to stay within the workload's small sizes.
CLI_TEMPLATES = (
    ("pmf_esf", lambda r: ["pmf", "--dist", "esf", "--n", str(r.integers(2, 13)), "--theta", _theta(r)] + _fmt(r)),
    ("pmf_kn", lambda r: ["pmf", "--dist", "kn", "--n", _int(r, 10, 500), "--theta", _theta(r),
                          "--method", str(r.choice(["stirling", "bernoulli_convolution"]))] + _fmt(r)),
    ("pmf_singleton", lambda r: ["pmf", "--dist", "singleton", "--n", _int(r, 5, 300), "--theta", _theta(r)] + _fmt(r)),
    ("moments", lambda r: ["moments", "--n", _int(r, 2, 10**4), "--theta", _theta(r)] + _fmt(r)),
    ("sample_dense", lambda r: ["sample", "--sampler", "feller", "--n", "1000", "--theta", "5e5",
                                "--m", str(r.integers(1, 4))] + _seed(r) + _fmt(r)),
    ("sample_feller", lambda r: ["sample", "--sampler", "feller", "--n", _int(r, 100, 10**4), "--theta", _theta(r),
                                 "--m", str(r.integers(1, 11))] + _seed(r) + _fmt(r)),
    ("sample_extension", lambda r: ["sample", "--sampler", "feller", "--n", "10000", "--theta", _theta(r, 0.5, 5.0),
                                    "--b-max", "5", "--m", str(r.integers(1, 6))] + _seed(r) + _fmt(r)),
    ("sample_crp", lambda r: ["sample", "--sampler", "crp", "--n", _int(r, 100, 2000), "--theta", _theta(r),
                              "--m", str(r.integers(1, 6))] + _seed(r) + _fmt(r)),
    ("sample_kn", lambda r: ["sample", "--sampler", "kn", "--n", _int(r, 100, 10**4), "--theta", _theta(r),
                             "--m", _int(r, 1, 100)] + _seed(r) + _fmt(r)),
    ("tv_oracle", _tv_oracle),
    ("tv", lambda r: ["tv", "--n", _int(r, 20, 300), "--theta", _theta(r), "--b", str(r.integers(1, 11))] + _fmt(r)),
    ("bounds", _bounds),
    ("leading_term", lambda r: ["leading-term", "--theta", _theta(r, 1.0, 10.0), "--b", str(r.integers(1, 6)),
                                "--n-grid", "50,100,200"] + _fmt(r)),
    ("regime", _regime),
    ("regime_c3", lambda r: ["regime", "--coeff", _theta(r, 0.5, 2.0), "--exponent", "3",
                             "--n", _int(r, 50, 200), "--mc", "1000"] + _seed(r)),
    ("fclt", _fclt),
    ("readme_tv", _fixed("tv --n 1000 --theta 2 --b 5")),
    ("readme_sample", _fixed("sample --sampler feller --n 1000 --theta 2 --m 3 --seed 42")),
    ("readme_bounds", _fixed("bounds --n 1000 --theta 2 --b 5")),
    ("readme_regime", _fixed("regime --coeff 0.5 --exponent 2 --n 1000 --mc 10000")),
    ("readme_fclt", _fixed("fclt --which X4 --stat sup --n 10000 --theta 2 --m 1000 --seed 7")),
    ("readme_check", _fixed("check --quick")),
    ("invalid", _fixed("moments --n 0 --theta 2")),
)

# Requests that fail at this commit (ROADMAP item 4 and the Stirling-cap
# default of kn_pmf). They run once per run, outside the timed mix, and
# are reported by name; a fix shows as the probe turning "ok".
KNOWN_DEFECTS = (
    ("moments_theta_1e-9", _fixed("moments --n 300 --theta 1e-9"), False),
    ("tv_theta_1e8", _fixed("tv --n 400 --theta 1e8"), False),
    ("pmf_kn_theta_1e8", _fixed("pmf --dist kn --n 400 --theta 1e8"), False),
    ("sample_negative_m", _fixed("sample --sampler kn --n 100 --theta 2 --m -3"), True),
    ("readme_pmf_kn", _fixed("pmf --dist kn --n 1000 --theta 2 --format csv"), False),
)


@dataclass(frozen=True)
class CliRequest:
    template: str
    index: int
    argv: tuple


def _options(argv) -> dict:
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _rows(opts, out) -> list:
    if opts.get("format") == "json":
        obj = json.loads(out)
        return obj["reports"] if "reports" in obj else obj["rows"]
    lines = [line for line in out.splitlines() if not line.startswith("# ")]
    return list(csv.reader(lines))[1:]


def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _want_rows(what: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{what}: {got} rows, expected {want}"]


def _check_pmf(o, out, err):
    rows = _rows(o, out)
    n = int(o["n"])
    want = {"esf": _partition_count(n), "kn": n, "singleton": n + 1}[o["dist"]]
    probs = [float(r[1]) for r in rows]
    problems = _want_rows("pmf", len(rows), want)
    if abs(math.fsum(probs) - 1.0) > 1e-9 or min(probs) < 0.0:
        problems.append(f"pmf mass {math.fsum(probs)!r}")
    return problems


def _check_moments(o, out, err):
    n = int(o["n"])
    rows = _rows(o, out)
    want = 2 + 2 * (n >= 2) + (1 if "j" in o else min(n, 5)) + 1
    problems = _want_rows("moments", len(rows), want)
    if not all(math.isfinite(float(r[1])) for r in rows):
        problems.append("non-finite moment")
    return problems


def _check_sample(o, out, err):
    rows = [[int(x) for x in r] for r in _rows(o, out)]
    n, m = int(o["n"]), int(o.get("m", 1))
    if o["sampler"] == "kn":
        problems = _want_rows("sample", len(rows), m)
        if any(not 1 <= k <= n for _, k in rows) or [i for i, _ in rows] != list(range(m)):
            problems.append("K_n draws out of range or misnumbered")
        return problems
    weight = [0] * m
    for rep, j, count in rows:
        weight[rep] += j * count
    bad = [rep for rep in range(m) if weight[rep] != n]
    return [f"replicates {bad} do not weigh n = {n}"] if bad else []


def _check_tv(o, out, err):
    rows = _rows(o, out)
    n = int(o["n"])
    problems = _want_rows("tv", len(rows), 2 + ("b" in o))
    if not all(0.0 <= float(r[1]) <= 1.0 for r in rows):
        problems.append("TV outside [0, 1]")
    # the CLI checks db_exact against enumeration up to n = 12
    if "b" in o and n <= 12 and rows[-1][6] != "true":
        problems.append(f"db_exact disagrees with enumeration: {rows[-1]}")
    return problems


def _check_bounds(o, out, err):
    n, theta = int(o["n"]), float(o["theta"])
    want = 5 + (n < theta) + 3
    if "b" in o:
        want += 5 + 2 * (theta >= 1.0) + 2 * ("w" in o)
    if "appendix" in o:
        want += len(distances.appendix_checks())
    return _want_rows("bounds", len(_rows(o, out)), want)


def _check_leading_term(o, out, err):
    rows = _rows(o, out)
    return _want_rows("leading-term", len(rows), len(o["n_grid"].split(",")))


def _check_regime(o, out, err):
    obj = json.loads(out)
    exponent = float(o["exponent"])
    label = ("A" if exponent < 1 else "B" if exponent == 1 else "C1" if exponent < 2
             else "C2" if exponent == 2 else "C3")
    problems = [] if obj["case"] == label else [f"case {obj['case']}, expected {label}"]
    if "n" in o and obj["at_n"]["n"] != int(o["n"]):
        problems.append("at_n block missing or wrong")
    if "mc" in o and int(obj["mc"]["m"]) != int(o["mc"]):
        problems.append("mc block missing or wrong")
    return problems


def _check_fclt(o, out, err):
    rows = _rows(o, out)
    problems = _want_rows("fclt", len(rows), int(o["m"]))
    if not all(math.isfinite(float(r[0])) for r in rows):
        problems.append("non-finite functional value")
    ks = json.loads(err)["ks"]
    if not 0.0 <= ks <= 1.0:
        problems.append(f"KS distance {ks!r}")
    return problems


def _check_check(o, out, err):
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", out.splitlines()[-1])
    return [] if m and m.group(1) == m.group(2) else [f"self-checks: {out.splitlines()[-1]!r}"]


_CLI_CHECKS = {
    "pmf": _check_pmf,
    "moments": _check_moments,
    "sample": _check_sample,
    "tv": _check_tv,
    "bounds": _check_bounds,
    "leading-term": _check_leading_term,
    "regime": _check_regime,
    "fclt": _check_fclt,
    "check": _check_check,
}


def check_cli(argv, rec, invalid: bool) -> list[str]:
    """Exit code, parseable output and expected row count of one call."""
    rc, out, err = rec
    if invalid:
        lines = err.splitlines()
        if rc != 1 or out or len(lines) != 1 or not lines[0].startswith("ewens: error:"):
            return [f"expected exit 1 with one error line, got exit {rc}, {len(lines)} stderr lines"]
        return []
    if rc != 0:
        return [f"exit {rc}: {err.strip()[:200]}"]
    try:
        return _CLI_CHECKS[argv[0]](_options(argv), out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def call_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _readme_quickstart() -> None:
    params = EsfParams(1000, 2.0)
    laws.kn_pmf(params).mean()
    distances.db_exact(params, b=5)
    sampling.sample_feller(params, RngState(42)).c_n.counts[:5]


class CliMix(Workload):
    name = "cli_mix"
    trace_n = 2 * len(CLI_TEMPLATES)  # two decks

    def requests(self, seed, tiny=False):
        r = np.random.default_rng(seed)
        out = []
        for _ in range(2 if tiny else 40):
            for i in r.permutation(len(CLI_TEMPLATES)):
                name, build = CLI_TEMPLATES[i]
                out.append(CliRequest(name, len(out), tuple(build(r))))
        return out

    def warm_up(self):
        call_cli(["pmf", "--dist", "kn", "--n", "500", "--theta", "2"])

    def run(self, req):
        return call_cli(req.argv)

    def check(self, req, rec):
        return check_cli(req.argv, rec, req.template == "invalid")

    def fingerprint(self, req, rec):
        return repr(rec).encode()

    def rerun_candidate(self, req):
        return req.template.startswith("sample")

    def same_record(self, kept, new):
        return new is not None and kept == new

    def label(self, req):
        return f"cli[{req.index}:{req.template}] ewens {' '.join(req.argv)}"

    def group(self, req):
        return req.template

    def probes(self):
        status = {}
        for name, build, invalid in KNOWN_DEFECTS:
            argv = build(None)
            try:
                problems = check_cli(argv, call_cli(argv), invalid)
            except Exception as exc:  # a traceback is the defect being probed
                problems = [f"raised {type(exc).__name__}: {exc}"]
            status[name] = "FAIL: " + "; ".join(problems) if problems else "ok"
        try:
            _readme_quickstart()
            status["readme_quickstart"] = "ok"
        except Exception as exc:
            status["readme_quickstart"] = f"FAIL: raised {type(exc).__name__}: {exc}"
        return status

    def bytes_out(self, rec):
        return len(rec[1].encode()) + len(rec[2].encode())


WORKLOADS = {w.name: w for w in (Exact, McSparse, CliMix)}
