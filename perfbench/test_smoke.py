"""Smoke test of the benchmark itself: every workload at tiny size, every
metric present, and every output check able to reject a corrupted result.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from ewens.distances import DbExact  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REPORTED_E2E = {"setup_s", "req_per_s", "latency_p50_ms", "latency_tail_ms", "error_rate", "peak_rss_mb"}
REPORTED_LAYER = {
    "laws.self_ms", "laws.tlm_log.self_ms", "laws.tlm_cells", "distances.self_ms", "special.self_ms",
    "sampling.self_ms", "sampling.dense_cells", "sampling.blocks_per_cell", "sampling.setup_us",
    "sampling.draws", "paths.self_ms", "paths.jumps", "paths.x2_grid_points", "paths.reference_normals",
    "regimes.self_ms", "bruteforce.self_ms", "checks.self_ms", "cli.self_ms", "cli.bytes_out",
    "trace_overhead_frac",
} | {f"{layer}.{what}" for layer in LAYERS for what in ("calls", "failed")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    report, final = run.run_workload(name, seed=3, seconds=1.0, trace=bool(trace), tiny=True)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"], report["failing_requests"] + report["run_check_problems"]
    assert final["attempted"] >= 1 and final["failed"] == 0
    wanted = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(final["metrics"]) == wanted
    assert (REPORTED_LAYER if trace else REPORTED_E2E) <= set(report["metrics"])
    assert all(d.startswith("identical") for d in report["determinism"])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed", "threads"):
        assert key in report["environment"]
    if name == "cli_mix":
        assert set(report["known_defects"]) >= {"moments_theta_1e-9", "readme_pmf_kn", "readme_quickstart"}


def _first(wl):
    req = wl.requests(5, tiny=True)[0]
    rec = wl.run(req)
    assert wl.check(req, rec) == []
    return req, rec


def test_exact_check_rejects_corrupted_results():
    wl = workloads.Exact()
    req, rec = _first(wl)
    rec[3].probs[0] += 1e-6  # singleton pmf off by 1e-6
    assert wl.check(req, rec)
    req, rec = _first(wl)
    bad = rec[:2] + (DbExact(rec[2].value + 1e-6, 0.0),) + rec[3:]
    assert wl.check(req, bad)


def test_mc_check_rejects_wrong_weight_and_biased_block_counts():
    wl = workloads.McSparse()
    req, (path, stats, k) = _first(wl)
    heavier = dataclasses.replace(path, cum_counts=path.cum_counts + 1, k_total=path.k_total + 1)
    assert any("weight" in p for p in wl.check(req, (heavier, stats, k)))
    done = [(r, wl.run(r)) for r in wl.requests(5, tiny=True)[:30]]
    assert wl.check_run(done) == []
    biased = [(r, (p, s, k + 10)) for r, (p, s, k) in done]
    assert wl.check_run(biased)


def _cli_ok(argv):
    rec = workloads.call_cli(argv)
    assert workloads.check_cli(argv, rec, invalid=False) == []
    return rec


def test_cli_check_rejects_corrupted_outputs():
    argv = ["pmf", "--dist", "kn", "--n", "50", "--theta", "2"]
    rc, out, err = _cli_ok(argv)
    lines = out.splitlines()
    k, p = lines[3].split(",")
    lines[3] = f"{k},{float(p) + 1e-6!r}"
    assert workloads.check_cli(argv, (rc, "\n".join(lines) + "\n", err), invalid=False)
    assert workloads.check_cli(argv, (rc, "\n".join(out.splitlines()[:-1]) + "\n", err), invalid=False)

    argv = ["sample", "--sampler", "feller", "--n", "100", "--theta", "2", "--m", "2", "--seed", "1"]
    rc, out, err = _cli_ok(argv)
    lines = out.splitlines()
    rep, j, count = lines[2].split(",")
    lines[2] = f"{rep},{j},{int(count) + 1}"
    assert workloads.check_cli(argv, (rc, "\n".join(lines) + "\n", err), invalid=False)

    assert workloads.check_cli(["moments", "--n", "0", "--theta", "2"], (0, "", ""), invalid=True)
    assert workloads.check_cli(argv, (1, "", "ewens: error: x\n"), invalid=False)


def test_determinism_fingerprint_tells_draws_apart():
    wl = workloads.McSparse()
    a, b = wl.requests(5, tiny=True)[:2]
    assert wl.fingerprint(a, wl.run(a)) == wl.fingerprint(a, wl.run(a))
    assert wl.fingerprint(a, wl.run(a)) != wl.fingerprint(b, wl.run(b))


def test_setup_is_paired_once_per_draw():
    wl = workloads.McSparse()
    tracer = Tracer()
    tracer.prepare([importlib.import_module(f"ewens.{m}") for m in LAYERS])
    tracer.enable()
    try:
        for i, req in enumerate(wl.requests(5, tiny=True)[:3]):
            tracer.request(i, wl.run, req)
    finally:
        tracer.disable()
    # the replicate's own substream feeds no generator and is not a pair
    assert tracer.counts["sampling.setup_pairs"] == tracer.counts["sampling.draws"] == 6
    assert tracer.summary()["sampling.setup_us"][0] > 0.0


def test_repeated_cli_requests_share_the_kept_record():
    wl = workloads.CliMix()
    reqs = [r for r in wl.requests(5, tiny=True) if r.template in ("moments", "pmf_esf")][:2]
    done, _wall = run.closed_loop(wl, reqs, 0.2)
    assert len(done) > 2
    assert done[2][1] is done[0][1]
    assert all(item[1] == wl.run(item[0]) for item in done[:2])


def test_exits_nonzero_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert res.returncode != 0
    assert res.stdout == ""
