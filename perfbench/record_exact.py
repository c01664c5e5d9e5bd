"""Regenerate exact_reference.json: the exact workload's case menu and the
values the package computes for each case.

    python3 perfbench/record_exact.py

The menu stratifies log n over [50, 2000] and log theta over [0.1, 100],
one jittered case per cell, each with a fixed b and a prefix drawn from
the Ewens law; the tiny menu (n <= 10) serves the smoke test, where the
enumeration oracle also applies. Each case also records its cost on the
recording machine (median of three reports), which orders the menu only:
runs draw cases evenly over the cost range. Re-record only when a change
is meant to alter these values, and say so.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

from ewens import sampling  # noqa: E402
from ewens.laws import EsfParams  # noqa: E402
from workloads import REFERENCE, ExactCase, exact_report, exact_summary  # noqa: E402

MENU_SEED = 170406768


def build_menu(tag: str, rows: int, cols: int, n_lo: int, n_hi: int) -> list[dict]:
    r = np.random.default_rng([MENU_SEED, rows, cols])
    master = sampling.RngState(MENU_SEED)
    cases = []
    for i in range(rows):
        for j in range(cols):
            n = int(round(math.exp(math.log(n_lo) + (i + r.random()) / rows * math.log(n_hi / n_lo))))
            theta = float(f"{math.exp(math.log(0.1) + (j + r.random()) / cols * math.log(1e3)):.6g}")
            b = int(r.integers(1, min(10, n - 1) + 1))
            draw = sampling.sample_feller(EsfParams(n, theta), master.substream(len(cases)), b_max=0)
            case = ExactCase(f"{tag}{len(cases)}", n, theta, b, tuple(int(c) for c in draw.c_n.counts[:b]), {})
            costs = []
            for _ in range(3):
                t0 = time.perf_counter()
                report = exact_report(case)
                costs.append(time.perf_counter() - t0)
            cases.append({
                "id": case.case_id, "n": n, "theta": theta, "b": b, "prefix": list(case.prefix),
                "cost_ms": round(statistics.median(costs) * 1e3, 3),
                "expect": exact_summary(report),
            })
            print(case.case_id, n, theta, b, flush=True)
    return cases


def main() -> None:
    menus = {"full": build_menu("f", 32, 8, 50, 2000), "tiny": build_menu("t", 4, 3, 3, 10)}
    # one case per line keeps re-recordings reviewable as diffs
    lines = ",\n".join(
        f'  "{name}": [\n' + ",\n".join("    " + json.dumps(c) for c in cases) + "\n  ]"
        for name, cases in menus.items()
    )
    REFERENCE.write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    main()
