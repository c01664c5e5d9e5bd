"""Batch command-line interface.

Every computation in the library is reachable as a subcommand that emits a
machine-readable table (CSV default, JSON on request). Randomized
subcommands require a seed (flag, ESF_SEED, or the documented default) and
record it in the output; identical configurations rerun byte-identically.
Exit codes: 0 success, 1 any error (one `ewens: error:` line on stderr, no
traceback), 2 check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np
from scipy.special import ndtr

from . import bruteforce, distances, laws, paths, regimes, sampling
from .checks import run_checks
from .laws import EsfParams
from .sampling import RngState
from .special import log1p_ratio


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: str | None) -> None:
    """Write atomically to `out`, or to stdout when no path is given."""
    if out is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ewens-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list], comment: str | None = None) -> str:
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_f17(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def _report_rows(reports: list[distances.BoundReport]) -> list[list]:
    rows = []
    for r in reports:
        rows.append(
            [
                r.name,
                float(r.value),
                "" if r.lower is None else _f17(r.lower),
                "" if r.upper is None else _f17(r.upper),
                int(r.satisfied),
                r.detail,
            ]
        )
    return rows


def _table(ns: argparse.Namespace, header: list[str], rows: list[list], meta: dict) -> None:
    if ns.format == "json":
        obj = dict(meta)
        obj["columns"] = header
        obj["rows"] = rows
        _emit(_json_text(obj), ns.out)
    else:
        comment = " ".join(f"{k}={v}" for k, v in sorted(meta.items())) or None
        _emit(_csv_text(header, rows, comment), ns.out)


def _seed(ns: argparse.Namespace) -> int:
    """The --seed flag, else ESF_SEED, else the default."""
    return sampling.seed_from_env() if ns.seed is None else ns.seed


def _run_pmf(ns: argparse.Namespace) -> int:
    p = EsfParams(ns.n, ns.theta)
    if ns.method is not None and ns.dist != "kn":
        raise ValueError("--method applies to --dist kn only")
    meta = {"dist": ns.dist, "n": p.n, "theta": p.theta}
    if ns.dist == "esf":
        table = bruteforce.enumerate_esf(p)
        rows = [[" ".join(map(str, c)), pr] for c, pr in zip(table.counts, table.probs)]
        _table(ns, ["counts", "prob"], rows, meta)
        return 0
    if ns.method == "stirling":
        if p.n > bruteforce.STIRLING_CAP:
            raise ValueError(
                f"--method stirling is the exact-integer oracle for n <= {bruteforce.STIRLING_CAP}; "
                "use --method bernoulli_convolution"
            )
        law = bruteforce.kn_stirling_pmf(p)
    else:
        law = laws.kn_pmf(p) if ns.dist == "kn" else laws.singleton_pmf(p)
    _table(ns, ["k", "prob"], [[k, float(law.prob(k))] for k in law.support()], meta)
    return 0


def _run_moments(ns: argparse.Namespace) -> int:
    p = EsfParams(ns.n, ns.theta)
    mean, var = laws.kn_mean_var(p)
    rows = [["kn_mean", mean], ["kn_var", var]]
    if p.n >= 2:
        s = regimes.standardize(p)
        rows += [["mu", s.mu], ["sigma2", s.sigma2]]
    for jj in [ns.j] if ns.j is not None else range(1, min(p.n, 5) + 1):
        rows.append([f"cjn_mean_{jj}", laws.cjn_mean(p, jj)])
    rows.append(["t0n", math.exp(laws.t0n_log(p))])
    _table(ns, ["name", "value"], rows, {"n": p.n, "theta": p.theta})
    return 0


def _run_sample(ns: argparse.Namespace) -> int:
    p = EsfParams(ns.n, ns.theta)
    m = ns.m
    seed = _seed(ns)
    meta = {"n": p.n, "theta": p.theta, "sampler": ns.sampler, "seed": seed, "m": m}
    # only the Feller sampler has an extension to tune
    extension = {k: v for k, v in (("b_max", ns.b_max), ("tail_bound", ns.tail_bound)) if v is not None}
    if extension and ns.sampler != "feller":
        raise ValueError(f"--{next(iter(extension)).replace('_', '-')} applies to --sampler feller only")
    gen = RngState(seed).generator()
    if ns.sampler == "kn":
        rows = [[i, sampling.sample_kn(p, gen)] for i in range(m)]
        _table(ns, ["rep", "k"], rows, meta)
        return 0
    rows = []
    c_inf = []
    for i in range(m):
        if ns.sampler == "crp":
            part = sampling.sample_crp(p, gen)
        else:
            s = sampling.sample_feller(p, gen, **extension)
            part = s.c_n
            c_inf.append(s.c_inf.tolist())
        rows += [[i, j, c] for j, c in zip(part.sizes.tolist(), part.mults.tolist())]
    if ns.sampler == "feller" and ns.b_max:
        meta["residual_bound"] = _f17(s.residual)
        # C^inf_1..b_max of each replicate; space-free in the CSV comment line
        meta["c_inf"] = c_inf if ns.format == "json" else json.dumps(c_inf, separators=(",", ":"))
    _table(ns, ["rep", "j", "count"], rows, meta)
    return 0


def _run_tv(ns: argparse.Namespace) -> int:
    p = EsfParams(ns.n, ns.theta)
    kn = distances.kn_poisson_tv(p, ns.center)
    nkn = distances.nkn_poisson_tv(p)
    rows = [
        ["kn_tv", kn.exact_tv.value, kn.exact_tv.lower, kn.exact_tv.upper, kn.lam, kn.upper_bound, ""],
        ["nkn_tv", nkn.exact_tv.value, nkn.exact_tv.lower, nkn.exact_tv.upper, nkn.lam, nkn.upper_bound, ""],
    ]
    if ns.b is not None:
        de = distances.db_exact(p, ns.b)
        flag = ""
        if p.n <= bruteforce._DB_CAP:
            bf = bruteforce.db_bruteforce(p, ns.b)
            flag = "true" if abs(de.value - bf) < 1e-8 else "false"
        rows.append(["db_exact", de.value, de.value, de.value + de.slack, "", "", flag])
    _table(
        ns,
        ["name", "value", "lower", "upper", "lam", "closed_form_bound", "oracle_match"],
        rows,
        {"n": p.n, "theta": p.theta, "center": ns.center},
    )
    return 0


def _run_bounds(ns: argparse.Namespace) -> int:
    p = EsfParams(ns.n, ns.theta)
    _, reports = distances.prelim_sums(p)
    lo, up = distances.bh_bounds(laws.success_probs(p.n, p.theta))
    reports = list(reports)
    reports.append(distances.make_report("bh_lower", lo, detail="Bernoulli-sum TV lower bound"))
    reports.append(distances.make_report("bh_upper", up, detail="Bernoulli-sum TV upper bound"))
    mean, _ = laws.kn_mean_var(p)
    mu_a = p.theta * log1p_ratio(p.n, p.theta)
    reports.append(
        distances.make_report(
            "yannaros_mu_A",
            distances.yannaros_bound(mean, mu_a),
            detail="Poisson recentering cost exact mean -> mu_A",
        )
    )
    if ns.b is not None:
        reports.extend(distances.dbw_bounds(p, ns.b))
        w = ns.w
        if w is not None:
            ld = distances.ld_tail_bound(p.theta, ns.b, w)
            reports.append(
                distances.make_report(
                    "ld_exact_log", ld.exact_log, upper=ld.bound_log,
                    detail=f"log P(T_0b >= b*w) at w={w:g}",
                )
            )
            reports.append(
                distances.make_report("ld_bound_log", ld.bound_log, detail="w*log(theta*e/w)")
            )
    if ns.appendix:
        reports.extend(distances.appendix_checks())
    meta = {"n": p.n, "theta": p.theta}
    if ns.format == "json":
        obj = dict(meta)
        obj["reports"] = [asdict(r) for r in reports]
        _emit(_json_text(obj), ns.out)
    else:
        _table(
            ns,
            ["name", "value", "lower", "upper", "satisfied", "detail"],
            _report_rows(reports),
            meta,
        )
    return 0


def _run_leading_term(ns: argparse.Namespace) -> int:
    rows = []
    for n in ns.n_grid:
        p = EsfParams(n, ns.theta)
        de = distances.db_exact(p, ns.b).value
        lead = distances.db_leading_term(p, ns.b)
        rows.append([n, de, lead, de / lead if lead else math.inf])
    _table(
        ns,
        ["n", "db_exact", "leading_term", "ratio"],
        rows,
        {"theta": ns.theta, "b": ns.b},
    )
    return 0


def _run_regime(ns: argparse.Namespace) -> int:
    if ns.mc and ns.n is None:
        raise ValueError("--mc needs --n")
    rule = regimes.GrowthRule(ns.coeff, ns.exponent)
    case = regimes.classify(rule)
    law = regimes.limit_law(case)
    obj: dict = {
        "rule": {"coeff": rule.coeff, "exponent": rule.exponent},
        "case": case.label,
        "c": case.c,
        "lln_constant": regimes.lln_constant(case),
        "limit_law": {"kind": law.kind},
    }
    if law.atoms is not None:
        obj["limit_law"]["atoms"] = [float(a) for a in law.atoms]
        obj["limit_law"]["weights"] = [float(w) for w in law.weights]
    if ns.n is not None:
        p = EsfParams(ns.n, rule.theta_at(ns.n))
        s = regimes.standardize(p)
        obj["at_n"] = {
            "n": p.n,
            "theta": p.theta,
            "mu": s.mu,
            "sigma2": s.sigma2,
            "p_singleton_exact": regimes.singleton_full_prob(p),
            "p_singleton_approx": math.exp(-p.n * p.n / (2.0 * p.theta)),
        }
        if ns.mc:
            seed = _seed(ns)
            z = regimes.zn_mc_distribution(rule, ns.n, ns.mc, RngState(seed))
            mc: dict = {"m": ns.mc, "seed": seed}
            if case.label in ("A", "B", "C1"):
                mc["ks_normal"] = paths.ks_distance(z, ndtr)
            elif case.label == "C2":
                mc["lattice_tv"] = regimes.standardized_lattice_tv(z, case.c)
            else:
                k = np.rint(z * math.sqrt(s.sigma2) + s.mu)
                mc["frac_k_equals_n"] = float(np.mean(k == p.n))
            obj["mc"] = mc
    _emit(_json_text(obj), ns.out)
    return 0


def _run_fclt(ns: argparse.Namespace) -> int:
    p = EsfParams(ns.n, ns.theta)
    seed = _seed(ns)
    which = ns.which
    stat = ns.stat
    cdf = paths.EXACT_REFERENCES.get((which, stat))
    # the simulated reference's window starts at eps/log n, which must be below 1/2
    if cdf is None and p.n > 1 and not ns.eps < 0.5 * math.log(p.n):
        raise ValueError(f"--eps must be below 0.5 log n = {0.5 * math.log(p.n):.4g} for {which}, got {ns.eps!r}")
    sample = paths.mc_functionals(p, which, stat, ns.eps, ns.m, RngState(seed))
    if cdf is not None:
        ks = paths.ks_distance(sample, cdf)
        reference = cdf.__name__
    else:
        eps_ref = ns.eps / math.log(p.n)
        ref = paths.reference_functionals(
            which,
            stat,
            eps_ref,
            ns.grid_m,
            ns.ref_m,
            RngState(seed).substream(2**32),
        )
        ks = paths.ks_distance(sample, ref)
        reference = "gaussian_simulation"
    meta = {"seed": seed, "n": p.n, "theta": p.theta, "which": which, "stat": stat}
    _table(ns, ["value"], [[float(v)] for v in sample.values], meta)
    summary = dict(meta, eps=ns.eps, m=ns.m, dense_window=sampling._dense_window(p.theta, p.n),
                   reference=reference, ks=ks, ks_tol=ns.ks_tol)
    summary["pass"] = bool(ks < ns.ks_tol)
    (sys.stderr if ns.out is None else sys.stdout).write(_json_text(summary))
    return 0


def _run_check(ns: argparse.Namespace) -> int:
    results = run_checks(quick=ns.quick)
    for r in results:
        print(f"{'ok  ' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    n_bad = sum(not r.ok for r in results)
    print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return 2 if n_bad else 0


def _at_least(lo: int, zero_ok: bool = False):
    """argparse type: an integer no smaller than `lo` (or 0, if `zero_ok`)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo and not (zero_ok and value == 0):
            floor = f"0 or at least {lo}" if zero_ok else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {floor}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value: 'x'"
    return parse


def _seed_arg(text: str) -> int:
    """argparse type: a seed in 0..2^64-1, which the generator uses unwrapped."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in 0..{2**64 - 1}, got {value}")
    return value


_seed_arg.__name__ = "int"  # a non-integer reads "invalid int value: 'x'"


def _n_grid(text: str) -> list[int]:
    """argparse type: a comma-separated list of sample sizes."""
    try:
        grid = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError("needs at least one n")
    return grid


def _build_parser() -> _Parser:
    ap = _Parser(prog="ewens", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, run, n=True):
        sp.set_defaults(run=run)
        if n:
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--theta", type=float, required=True)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("pmf", help="exact distribution tables")
    common(sp, _run_pmf)
    sp.add_argument("--dist", choices=("esf", "kn", "singleton"), required=True)
    sp.add_argument(
        "--method",
        choices=("stirling", "bernoulli_convolution"),
        help="kn only: bernoulli_convolution (the default) is the convolution tree; "
        f"stirling is the exact-integer oracle for n <= {bruteforce.STIRLING_CAP}",
    )

    sp = sub.add_parser("moments", help="means, variances, standardization")
    common(sp, _run_moments)
    sp.add_argument("--j", type=int)

    sp = sub.add_parser("sample", help="seeded draws from the partition samplers")
    common(sp, _run_sample)
    sp.add_argument("--sampler", choices=("feller", "crp", "kn"), required=True)
    sp.add_argument("--m", type=_at_least(1), default=1)
    sp.add_argument("--seed", type=_seed_arg)
    sp.add_argument("--b-max", type=int, help="feller only; default 0, no extension")
    sp.add_argument("--tail-bound", type=float, help="feller only; default 1e-4")

    sp = sub.add_parser("tv", help="exact TV distances vs Poisson laws")
    common(sp, _run_tv)
    sp.add_argument("--b", type=int)
    sp.add_argument("--center", choices=("exact_mean", "mu_A", "mu_a"), default="exact_mean")

    sp = sub.add_parser("bounds", help="closed-form bound reports")
    common(sp, _run_bounds)
    sp.add_argument("--b", type=int)
    sp.add_argument("--w", type=float)
    sp.add_argument("--appendix", action="store_true")

    sp = sub.add_parser("leading-term", help="d_b(n) vs its (theta-1)/(2n) expansion")
    common(sp, _run_leading_term, n=False)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n-grid", type=_n_grid, default="100,1000,10000")

    sp = sub.add_parser("regime", help="growth-law classification and limit law")
    sp.set_defaults(run=_run_regime)
    sp.add_argument("--coeff", type=float, required=True)
    sp.add_argument("--exponent", type=float, required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--mc", type=_at_least(regimes.MIN_REPLICATES, zero_ok=True), default=0)
    sp.add_argument("--seed", type=_seed_arg)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("fclt", help="path functional Monte Carlo vs references")
    common(sp, _run_fclt)
    sp.add_argument("--which", choices=paths._PROCESSES, default="X4")
    sp.add_argument("--stat", choices=("sup", "l2"), default="sup")
    sp.add_argument("--m", type=_at_least(paths.MIN_REPLICATES), default=2000)
    sp.add_argument("--eps", type=float, default=paths.DEFAULT_EPS)
    sp.add_argument("--grid-m", type=_at_least(paths.MIN_GRID_M), default=2**12,
                    help="grid of the simulated reference (X3 and X5 only)")
    sp.add_argument("--ref-m", type=_at_least(paths.MIN_REF_REPLICATES), default=10**4,
                    help="replicates of the simulated reference (X3 and X5 only)")
    sp.add_argument("--ks-tol", type=float, default=0.05)
    sp.add_argument("--seed", type=_seed_arg)

    sp = sub.add_parser("check", help="run the invariant self-checks")
    sp.set_defaults(run=_run_check)
    sp.add_argument("--quick", action="store_true")
    return ap


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
        return ns.run(ns)
    except Exception as exc:
        # the process boundary: any failure is one line on stderr and exit 1
        reason = str(exc) if isinstance(exc, (_UsageError, ValueError)) else f"{type(exc).__name__}: {exc}"
        print(f"ewens: error: {' '.join(reason.split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
