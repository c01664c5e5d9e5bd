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
from dataclasses import dataclass, field

import numpy as np

from . import bruteforce, distances, laws, paths, regimes, sampling
from .checks import run_checks
from .laws import EsfParams
from .sampling import DEFAULT_SEED, RngState
from .special import kolmogorov_cdf, normal_cdf


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; exactly one of theta / (coeff, exponent) is set."""

    subcommand: str
    n: int | None = None
    theta: float | None = None
    coeff: float | None = None
    exponent: float | None = None
    b: int | None = None
    m: int | None = None
    seed: int = DEFAULT_SEED
    eps: float = paths.DEFAULT_EPS
    fmt: str = "csv"
    out: str | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        has_theta = self.theta is not None
        has_rule = self.coeff is not None or self.exponent is not None
        if has_theta and has_rule:
            raise _UsageError("give either --theta or a growth rule, not both")


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


def _report_dicts(reports: list[distances.BoundReport]) -> list[dict]:
    return [
        {
            "name": r.name,
            "value": r.value,
            "lower": r.lower,
            "upper": r.upper,
            "satisfied": r.satisfied,
            "detail": r.detail,
        }
        for r in reports
    ]


def _table(cfg: RunConfig, header: list[str], rows: list[list], meta: dict) -> None:
    if cfg.fmt == "json":
        obj = dict(meta)
        obj["columns"] = header
        obj["rows"] = rows
        _emit(_json_text(obj), cfg.out)
    else:
        comment = " ".join(f"{k}={v}" for k, v in sorted(meta.items())) or None
        _emit(_csv_text(header, rows, comment), cfg.out)


def _params(cfg: RunConfig) -> EsfParams:
    if cfg.n is None or cfg.theta is None:
        raise _UsageError("this subcommand needs --n and --theta")
    return EsfParams(cfg.n, cfg.theta)


def _run_pmf(cfg: RunConfig) -> int:
    p = _params(cfg)
    dist = cfg.extras["dist"]
    if dist == "kn":
        law = laws.kn_pmf(p, cfg.extras["method"])
        rows = [[k, float(law.prob(k))] for k in law.support()]
        _table(cfg, ["k", "prob"], rows, {"dist": dist, "n": p.n, "theta": p.theta})
    elif dist == "singleton":
        law = laws.singleton_pmf(p)
        rows = [[k, float(law.prob(k))] for k in law.support()]
        _table(cfg, ["k", "prob"], rows, {"dist": dist, "n": p.n, "theta": p.theta})
    else:
        table = bruteforce.enumerate_esf(p)
        rows = [
            [" ".join(str(int(c)) for c in part.counts), float(pr)]
            for part, pr in table.entries
        ]
        _table(cfg, ["counts", "prob"], rows, {"dist": dist, "n": p.n, "theta": p.theta})
    return 0


def _run_moments(cfg: RunConfig) -> int:
    p = _params(cfg)
    mean, var = laws.kn_mean_var(p)
    rows = [["kn_mean", mean], ["kn_var", var]]
    if p.n >= 2:
        s = regimes.standardize(p)
        rows += [["mu", s.mu], ["sigma2", s.sigma2]]
    j = cfg.extras.get("j")
    for jj in [j] if j is not None else range(1, min(p.n, 5) + 1):
        rows.append([f"cjn_mean_{jj}", laws.cjn_mean(p, jj)])
    rows.append(["t0n", laws.t0n_closed(p)])
    _table(cfg, ["name", "value"], rows, {"n": p.n, "theta": p.theta})
    return 0


def _run_sample(cfg: RunConfig) -> int:
    p = _params(cfg)
    m = cfg.m
    sampler = cfg.extras["sampler"]
    rng = RngState(cfg.seed)
    meta = {"n": p.n, "theta": p.theta, "sampler": sampler, "seed": cfg.seed, "m": m}
    if sampler == "kn":
        rows = [[i, sampling.sample_kn(p, rng.substream(i))] for i in range(m)]
        _table(cfg, ["rep", "k"], rows, meta)
        return 0
    rows = []
    if sampler == "crp":
        for i in range(m):
            part = sampling.sample_crp(p, rng.substream(i))
            rows += [[i, j + 1, int(c)] for j, c in enumerate(part.counts) if c]
    else:
        b_max = cfg.extras["b_max"]
        tail = cfg.extras["tail_bound"]
        residual = 0.0
        for i in range(m):
            s = sampling.sample_feller(p, rng.substream(i), b_max=b_max, tail_bound=tail)
            rows += [[i, j + 1, int(c)] for j, c in enumerate(s.c_n.counts) if c]
            residual = s.residual
        if b_max:
            meta["residual_bound"] = _f17(residual)
    _table(cfg, ["rep", "j", "count"], rows, meta)
    return 0


def _run_tv(cfg: RunConfig) -> int:
    p = _params(cfg)
    center = cfg.extras["center"]
    kn = distances.kn_poisson_tv(p, center)
    nkn = distances.nkn_poisson_tv(p)
    rows = [
        ["kn_tv", kn.exact_tv.value, kn.exact_tv.lower, kn.exact_tv.upper, kn.lam, kn.upper_bound, ""],
        ["nkn_tv", nkn.exact_tv.value, nkn.exact_tv.lower, nkn.exact_tv.upper, nkn.lam, nkn.upper_bound, ""],
    ]
    if cfg.b is not None:
        de = distances.db_exact(p, cfg.b)
        flag = ""
        if p.n <= bruteforce._DB_CAP:
            bf = bruteforce.db_bruteforce(p, cfg.b)
            flag = "true" if abs(de.value - bf) < 1e-8 else "false"
        rows.append(["db_exact", de.value, "", "", "", "", flag])
    _table(
        cfg,
        ["name", "value", "lower", "upper", "lam", "closed_form_bound", "oracle_match"],
        rows,
        {"n": p.n, "theta": p.theta, "center": center},
    )
    return 0


def _run_bounds(cfg: RunConfig) -> int:
    p = _params(cfg)
    _, reports = distances.prelim_sums(p)
    lo, up = distances.bh_bounds(laws.success_probs(p.n, p.theta))
    reports = list(reports)
    reports.append(distances.make_report("bh_lower", lo, detail="Bernoulli-sum TV lower bound"))
    reports.append(distances.make_report("bh_upper", up, detail="Bernoulli-sum TV upper bound"))
    mean, _ = laws.kn_mean_var(p)
    mu_a = p.theta * math.log1p(p.n / p.theta)
    reports.append(
        distances.make_report(
            "yannaros_mu_A",
            distances.yannaros_bound(mean, mu_a),
            detail="Poisson recentering cost exact mean -> mu_A",
        )
    )
    if cfg.b is not None:
        reports.extend(distances.dbw_bounds(p, cfg.b))
        w = cfg.extras.get("w")
        if w is not None:
            ld = distances.ld_tail_bound(p.theta, cfg.b, w)
            reports.append(
                distances.make_report(
                    "ld_exact_log", ld.exact_log, upper=ld.bound_log,
                    detail=f"log P(T_0b >= b*w) at w={w:g}",
                )
            )
            reports.append(
                distances.make_report("ld_bound_log", ld.bound_log, detail="w*log(theta*e/w)")
            )
    if cfg.extras.get("appendix"):
        reports.extend(distances.appendix_checks())
    meta = {"n": p.n, "theta": p.theta}
    if cfg.fmt == "json":
        obj = dict(meta)
        obj["reports"] = _report_dicts(reports)
        _emit(_json_text(obj), cfg.out)
    else:
        _table(
            cfg,
            ["name", "value", "lower", "upper", "satisfied", "detail"],
            _report_rows(reports),
            meta,
        )
    return 0


def _run_leading_term(cfg: RunConfig) -> int:
    if cfg.theta is None or cfg.b is None:
        raise _UsageError("leading-term needs --theta and --b")
    rows = []
    for n in cfg.extras["n_grid"]:
        p = EsfParams(n, cfg.theta)
        de = distances.db_exact(p, cfg.b).value
        lead = distances.db_leading_term(p, cfg.b)
        rows.append([n, de, lead, de / lead if lead else math.inf])
    _table(
        cfg,
        ["n", "db_exact", "leading_term", "ratio"],
        rows,
        {"theta": cfg.theta, "b": cfg.b},
    )
    return 0


def _run_regime(cfg: RunConfig) -> int:
    if cfg.coeff is None or cfg.exponent is None:
        raise _UsageError("regime needs --coeff and --exponent")
    rule = regimes.GrowthRule(cfg.coeff, cfg.exponent)
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
    if cfg.n is not None:
        p = EsfParams(cfg.n, rule.theta_at(cfg.n))
        s = regimes.standardize(p)
        obj["at_n"] = {
            "n": p.n,
            "theta": p.theta,
            "mu": s.mu,
            "sigma2": s.sigma2,
            "p_singleton_exact": regimes.singleton_full_prob(p),
            "p_singleton_approx": math.exp(-p.n * p.n / (2.0 * p.theta)),
        }
        if cfg.m:
            z = regimes.zn_mc_distribution(rule, cfg.n, cfg.m, RngState(cfg.seed))
            mc: dict = {"m": cfg.m, "seed": cfg.seed}
            if case.label in ("A", "B", "C1"):
                mc["ks_normal"] = paths.ks_distance(z, normal_cdf)
            elif case.label == "C2":
                mc["lattice_tv"] = regimes.standardized_lattice_tv(z, case.c)
            else:
                k = np.rint(z * math.sqrt(s.sigma2) + s.mu)
                mc["frac_k_equals_n"] = float(np.mean(k == p.n))
            obj["mc"] = mc
    _emit(_json_text(obj), cfg.out)
    return 0


def _run_fclt(cfg: RunConfig) -> int:
    p = _params(cfg)
    m = cfg.m
    which = cfg.extras["which"]
    stat = cfg.extras["stat"]
    sample = paths.mc_functionals(p, which, stat, cfg.eps, m, RngState(cfg.seed))
    if which == "X4" and stat == "sup":
        ks = paths.ks_distance(sample, kolmogorov_cdf)
        reference = "kolmogorov_cdf"
    else:
        eps_ref = cfg.eps / math.log(p.n)
        ref = paths.reference_functionals(
            which,
            stat,
            eps_ref,
            cfg.extras["grid_m"],
            cfg.extras["ref_m"],
            RngState(cfg.seed).substream(2**32),
        )
        ks = paths.ks_distance(sample, ref)
        reference = "gaussian_simulation"
    tol = cfg.extras["ks_tol"]
    summary = {
        "which": which,
        "stat": stat,
        "n": p.n,
        "theta": p.theta,
        "eps": cfg.eps,
        "m": m,
        "seed": cfg.seed,
        "reference": reference,
        "ks": ks,
        "ks_tol": tol,
        "pass": bool(ks < tol),
    }
    csv_text = _csv_text(
        ["value"],
        [[float(v)] for v in sample.values],
        f"seed={cfg.seed} n={p.n} theta={p.theta} which={which} stat={stat}",
    )
    if cfg.out is not None:
        _emit(csv_text, cfg.out)
        sys.stdout.write(_json_text(summary))
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(_json_text(summary))
    return 0


def _run_check(cfg: RunConfig) -> int:
    results = run_checks(quick=bool(cfg.extras.get("quick")))
    for r in results:
        print(f"{'ok  ' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    n_bad = sum(not r.ok for r in results)
    print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return 2 if n_bad else 0


_RUNNERS = {
    "pmf": _run_pmf,
    "moments": _run_moments,
    "sample": _run_sample,
    "tv": _run_tv,
    "bounds": _run_bounds,
    "leading-term": _run_leading_term,
    "regime": _run_regime,
    "fclt": _run_fclt,
    "check": _run_check,
}


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    return _RUNNERS[config.subcommand](config)


def _build_parser() -> _Parser:
    ap = _Parser(prog="ewens", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, n=True, theta=True, fmt=True):
        if n:
            sp.add_argument("--n", type=int, required=True)
        if theta:
            sp.add_argument("--theta", type=float, required=True)
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
            sp.add_argument("--out", default=None)

    sp = sub.add_parser("pmf", help="exact distribution tables")
    common(sp)
    sp.add_argument("--dist", choices=("esf", "kn", "singleton"), required=True)
    sp.add_argument("--method", choices=("stirling", "bernoulli_convolution"))

    sp = sub.add_parser("moments", help="means, variances, standardization")
    common(sp)
    sp.add_argument("--j", type=int)

    sp = sub.add_parser("sample", help="seeded draws from the partition samplers")
    common(sp)
    sp.add_argument("--sampler", choices=("feller", "crp", "kn"), required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--b-max", type=int, default=0)
    sp.add_argument("--tail-bound", type=float, default=1e-4)

    sp = sub.add_parser("tv", help="exact TV distances vs Poisson laws")
    common(sp)
    sp.add_argument("--b", type=int)
    sp.add_argument("--center", choices=("exact_mean", "mu_A", "mu_a"), default="exact_mean")

    sp = sub.add_parser("bounds", help="closed-form bound reports")
    common(sp)
    sp.add_argument("--b", type=int)
    sp.add_argument("--w", type=float)
    sp.add_argument("--appendix", action="store_true")

    sp = sub.add_parser("leading-term", help="d_b(n) vs its (theta-1)/(2n) expansion")
    common(sp, n=False)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n-grid", default="100,1000,10000")

    sp = sub.add_parser("regime", help="growth-law classification and limit law")
    sp.add_argument("--coeff", type=float, required=True)
    sp.add_argument("--exponent", type=float, required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--mc", type=int, default=0)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("fclt", help="path functional Monte Carlo vs references")
    common(sp)
    sp.add_argument("--which", choices=paths._PROCESSES, default="X4")
    sp.add_argument("--stat", choices=("sup", "l2"), default="sup")
    sp.add_argument("--m", type=int, default=2000)
    sp.add_argument("--eps", type=float, default=paths.DEFAULT_EPS)
    sp.add_argument("--grid-m", type=int, default=2**12)
    sp.add_argument("--ref-m", type=int, default=10**4)
    sp.add_argument("--ks-tol", type=float, default=0.05)
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("check", help="run the invariant self-checks")
    sp.add_argument("--quick", action="store_true")
    return ap


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    extras = {}
    for key in (
        "dist", "method", "sampler", "center", "w", "appendix", "which", "stat",
        "grid_m", "ref_m", "ks_tol", "quick", "j", "b_max", "tail_bound",
    ):
        if hasattr(ns, key):
            extras[key] = getattr(ns, key)
    if hasattr(ns, "n_grid"):
        try:
            extras["n_grid"] = [int(s) for s in str(ns.n_grid).split(",") if s]
        except ValueError:
            raise _UsageError(f"bad --n-grid value {ns.n_grid!r}")
        if not extras["n_grid"]:
            raise _UsageError("--n-grid needs at least one n")
    if getattr(ns, "m", 1) < 1:
        raise _UsageError(f"--m must be at least 1, got {ns.m}")
    if getattr(ns, "mc", 0) < 0:
        raise _UsageError(f"--mc must be at least 0, got {ns.mc}")
    seed = getattr(ns, "seed", None)
    if seed is None:
        seed = sampling.seed_from_env()
    return RunConfig(
        subcommand=ns.subcommand,
        n=getattr(ns, "n", None),
        theta=getattr(ns, "theta", None),
        coeff=getattr(ns, "coeff", None),
        exponent=getattr(ns, "exponent", None),
        b=getattr(ns, "b", None),
        m=ns.m if hasattr(ns, "m") else getattr(ns, "mc", None),
        seed=seed,
        eps=getattr(ns, "eps", paths.DEFAULT_EPS),
        fmt=getattr(ns, "format", "csv"),
        out=getattr(ns, "out", None),
        extras=extras,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg = _config_from_args(ns)
        return run(cfg)
    except Exception as exc:
        # the process boundary: any failure is one line on stderr and exit 1
        reason = str(exc) if isinstance(exc, (_UsageError, ValueError)) else f"{type(exc).__name__}: {exc}"
        print(f"ewens: error: {' '.join(reason.split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
