"""Closed-loop benchmark of the ewens package.

    python3 perfbench/run.py --workload {exact,mc_sparse,cli_mix,all} \
        --seed N --seconds S --trace {0,1}

One client, single thread (OMP/OpenBLAS/MKL threads are pinned to 1): the
next request is sent only after the previous one has returned. Every
request is generated from --seed before timing starts and calls the
package through its public functions only; the package is imported from
src/ next to this directory.

--trace 0 measures the end-to-end metrics: the set-up time of a fresh
interpreter (median of SETUP_PROBES), then S seconds of requests in this
process, then output checks, a determinism rerun and the known-defect
probes. --trace 1 runs each request of a fixed prefix of the request
list twice, untraced and with span recording installed at every layer
boundary, in alternating order, and reports per-layer self times and
work counts plus the tracing overhead.

The report (machine, versions, commit, seed, failing requests by name,
known-defect probes) goes to stdout and to perfbench/out/; the last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("exact", "mc_sparse", "cli_mix")


def _error_text(exc: BaseException) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"


def timed_call(wl, req) -> list:
    """One request: [req, record, error text or None, latency_s]."""
    t0 = perf_counter()
    try:
        rec, err = wl.run(req), None
    except Exception as exc:  # a failed request is counted, not fatal
        rec, err = None, _error_text(exc)
    return [req, rec, err, perf_counter() - t0]


def closed_loop(wl, reqs: list, seconds: float):
    """Send requests one after another until `seconds` is used up.

    Returns the timed_call items and the loop's wall time. The request
    list is cycled if the time outlasts it; a repeat whose record equals
    the one kept for the same request shares it, so the outputs held for
    the checks never exceed one per listed request.
    """
    done = []
    start = perf_counter()
    deadline = start + seconds
    while True:
        i = len(done)
        item = timed_call(wl, reqs[i % len(reqs)])
        if i >= len(reqs) and wl.same_record(done[i - len(reqs)][1], item[1]):
            item[1] = done[i - len(reqs)][1]
        done.append(item)
        if perf_counter() >= deadline:
            return done, perf_counter() - start


def paired_trace(wl, reqs: list, seconds: float, tracer) -> tuple[list, float]:
    """Run each request untraced and traced, alternating which goes first.

    Returns the traced [req, rec, error, latency_s] items and the untraced
    latency total, for the tracing overhead. Stops early after `seconds`.
    """
    done = []
    untraced = 0.0
    deadline = perf_counter() + seconds
    for i, req in enumerate(reqs):
        for traced in (i % 2 == 1, i % 2 == 0):
            if not traced:
                untraced += timed_call(wl, req)[3]
                continue
            tracer.enable()
            try:
                (rec, dt), err = tracer.request(i, wl.run, req), None
            except Exception as exc:
                rec, err, dt = None, _error_text(exc), tracer.last_seconds()
            finally:
                tracer.disable()
            done.append([req, rec, err, dt])
        if perf_counter() >= deadline:
            break
    return done, untraced


def verify(wl, done: list) -> dict:
    """Output checks (after timing) and the determinism rerun.

    Appends each item's problems to it; returns the failing request labels,
    run-level problems and the determinism verdict.
    """
    failing = []
    for item in done:
        req, rec, err, _ = item
        if err:
            problems = [err]
        else:
            try:
                problems = wl.check(req, rec)
            except Exception as exc:
                problems = [f"check raised {_error_text(exc)}"]
        item.append(problems)
        if problems:
            failing.append(f"{wl.label(req)}: {'; '.join(problems)}")
    ok = [(req, rec) for req, rec, _err, _dt, problems in done if not problems]
    try:
        run_problems = wl.check_run(ok)
    except Exception as exc:
        run_problems = [f"run check raised {_error_text(exc)}"]
    pick = next(((req, rec) for req, rec in ok if wl.rerun_candidate(req)), ok[0] if ok else None)
    if pick is None:
        determinism = "not run: no successful request"
    else:
        req, rec = pick
        try:
            same = wl.fingerprint(req, wl.run(req)) == wl.fingerprint(req, rec)
            determinism = f"{'identical' if same else 'DIFFERS'}: {wl.label(req)}"
        except Exception as exc:
            determinism = f"DIFFERS: rerun raised {_error_text(exc)}"
    return {"failing_requests": failing, "run_check_problems": run_problems, "determinism": [determinism]}


def _percentile_tail(lat: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    lat = sorted(lat)
    if len(lat) <= 10:
        return lat[-1], 100.0
    return lat[-11], 100.0 * (len(lat) - 10) / len(lat)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "ewens").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _load(name: str):
    import ewens
    import workloads

    if Path(ewens.__file__).resolve().parent != SRC / "ewens":
        raise RuntimeError(f"imported ewens from {ewens.__file__}, not from {SRC}")
    return workloads.WORKLOADS[name]()


def setup_seconds(name: str) -> float:
    """Wall time of one fresh interpreter: import ewens.cli + one warm-up."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def wall_share(wl, done: list) -> dict:
    """Per request kind: requests, summed latency and its share of the total."""
    groups: dict = {}
    for req, _rec, _err, dt, *_ in done:
        g = groups.setdefault(wl.group(req), {"requests": 0, "latency_s": 0.0})
        g["requests"] += 1
        g["latency_s"] += dt
    total = sum(g["latency_s"] for g in groups.values())
    for g in groups.values():
        g["share"] = g["latency_s"] / total
    return dict(sorted(groups.items(), key=lambda kv: -kv[1]["latency_s"]))


def measure(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    """End-to-end metrics: set-up probes, then `seconds` of closed-loop requests."""
    wl = _load(name)
    setup = [setup_seconds(name) for _ in range(SETUP_PROBES)]
    reqs = wl.requests(seed, tiny)
    wl.warm_up()
    done, wall = closed_loop(wl, reqs, seconds)
    # before the output checks, which allocate memory of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = verify(wl, done)
    ok_lat = [item[3] for item in done if not item[4]]
    tail, pct = _percentile_tail(ok_lat) if ok_lat else (float("nan"), 0.0)
    report.update(
        metrics={
            "setup_s": (statistics.median(setup), "s"),
            "req_per_s": (len(ok_lat) / wall, "1/s"),
            "latency_p50_ms": (statistics.median(ok_lat) * 1e3 if ok_lat else float("nan"), "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "error_rate": ((len(done) - len(ok_lat)) / len(done), "fraction"),
        },
        attempted=len(done),
        failed=len(done) - len(ok_lat),
        known_defects=wl.probes(),
        environment=_environment(seed),
        latency_tail={"percentile": pct, "successful_requests": len(ok_lat)},
        wall_share=wall_share(wl, done),
        setup_runs_s=setup,
        timed_wall_s=wall,
    )
    return report


def trace_layers(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Per-layer metrics from a paired traced/untraced replay in this process."""
    from spans import COMPUTED, LAYERS, Tracer

    wl = _load(name)
    wl.warm_up()
    reqs = wl.requests(seed, tiny)
    tracer = Tracer()
    tracer.prepare([importlib.import_module(f"ewens.{m}") for m in LAYERS])
    done, untraced = paired_trace(wl, reqs[: wl.trace_n], seconds, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.csv.gz")
    metrics = tracer.summary()
    metrics["cli.bytes_out"] = (sum(wl.bytes_out(rec) for _, rec, err, _ in done if not err), "B")
    metrics["trace_overhead_frac"] = (sum(item[3] for item in done) / untraced - 1.0, "fraction")
    metrics["trace.requests"] = (len(done), "count")
    report = verify(wl, done)
    report["computed"] = [*COMPUTED, "cli.bytes_out"]
    failed = sum(1 for item in done if item[4])
    report.update(
        metrics=metrics,
        attempted=len(done),
        failed=failed,
        known_defects=wl.probes(),
        environment=_environment(seed),
    )
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (full report, final result line)."""
    if trace:
        report = trace_layers(name, seed, seconds, tiny)
    else:
        report = measure(name, seed, seconds, tiny)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    report.update(workload=name, trace=int(trace), seconds=seconds, tiny=tiny)
    report["correct"] = (
        not report["failing_requests"]
        and not report["run_check_problems"]
        and all(d.startswith("identical") for d in report["determinism"])
    )
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    final = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: report["metrics"][k] for k in wanted},
    }
    return report, final


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (trace={report['trace']}, seed={report['environment']['seed']})")
    computed = set(report.get("computed", ()))
    for key, m in report["metrics"].items():
        label = " (computed from arguments and results)" if key in computed else ""
        print(f"  {key:28s} {m['value']:>16.6g} {m['unit']}{label}")
    if "latency_tail" in report:
        t = report["latency_tail"]
        print(f"  latency_tail_ms is p{t['percentile']:.2f} of {t['successful_requests']} successful requests")
    shares = report.get("wall_share", {})
    for group, g in shares.items() if len(shares) > 1 else ():
        print(f"  wall share {group:20s} {g['share']:7.2%} of latency, {g['requests']} requests")
    print(f"  attempted {report['attempted']}, failed {report['failed']}, correct {report['correct']}")
    for line in report["failing_requests"] + report["run_check_problems"]:
        print(f"  FAILING {line}")
    for line in report["determinism"]:
        print(f"  determinism: {line}")
    for probe, status in report["known_defects"].items():
        print(f"  known defect {probe}: {status}")
    env = report["environment"]
    print(f"  machine: {env['nproc']} cpus ({env['cpu_model']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}")
    print("report: " + json.dumps(report, sort_keys=True))


def run_all(args) -> int:
    """Each workload in turn; prints their reports and a summary table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        rows.append((name, json.loads(res.stdout.splitlines()[-1])))
    print("== summary")
    for name, final in rows:
        cells = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in final["metrics"].items())
        print(f"  {name}: correct={final['correct']} failed={final['failed']}/{final['attempted']} {cells}")
    print(json.dumps({name: final for name, final in rows}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)  # smoke-test sizes
    args = ap.parse_args(argv)
    if not (SRC / "ewens" / "__init__.py").is_file():
        print(f"perfbench: no ewens package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for key in THREAD_VARS:
        os.environ[key] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    report, final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
