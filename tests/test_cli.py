"""Command-line interface tests.

Every assertion goes through main(argv) so the full parse, dispatch, and
emit path is exercised. Output files are written to tmp_path; determinism
is asserted byte for byte.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ewens
from ewens.cli import main
from ewens.distances import db_exact
from ewens.laws import EsfParams


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPmf:
    def test_kn_table_values(self, capsys):
        code, out, err = run_cli(["pmf", "--n", "3", "--theta", "2", "--dist", "kn"], capsys)
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "k,prob"
        rows = dict(l.split(",") for l in lines[1:])
        assert float(rows["1"]) == pytest.approx(1 / 6, rel=1e-15)
        assert float(rows["2"]) == pytest.approx(1 / 2, rel=1e-15)
        assert float(rows["3"]) == pytest.approx(1 / 3, rel=1e-15)

    def test_esf_table_lists_partitions(self, capsys):
        code, out, _ = run_cli(["pmf", "--n", "3", "--theta", "1", "--dist", "esf"], capsys)
        assert code == 0
        body = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 3  # header + p(3) partitions

    def test_json_format_is_sorted_and_parseable(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--n", "4", "--theta", "1", "--dist", "singleton", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == sorted(doc)

    def test_out_file_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "pmf.csv"
        code, out, _ = run_cli(
            ["pmf", "--n", "3", "--theta", "1", "--dist", "kn", "--out", str(target)], capsys
        )
        assert code == 0
        assert target.exists()
        assert out == ""
        leftovers = [p for p in os.listdir(tmp_path) if p != "pmf.csv"]
        assert leftovers == []


class TestTv:
    def test_db_exact_row_matches_oracle(self, capsys):
        code, out, _ = run_cli(["tv", "--n", "2", "--theta", "1", "--b", "1"], capsys)
        assert code == 0
        assert "0.44818083824283661" in out
        assert "true" in out

    @pytest.mark.parametrize("n, theta, b, window_reaches_n", [(12, 1.5, 3, True), (5000, 2.0, 5, False)])
    def test_db_exact_row_prints_its_bracket(self, capsys, n, theta, b, window_reaches_n):
        # [lower, upper] = [value, value + slack]; the slack is 0.0 where the
        # T_0b window reaches n
        de = db_exact(EsfParams(n, theta), b)
        assert (de.slack == 0.0) == window_reaches_n
        code, out, _ = run_cli(["tv", "--n", str(n), "--theta", str(theta), "--b", str(b)], capsys)
        assert code == 0
        row = {r["name"]: r for r in csv.DictReader(out.splitlines()[1:])}["db_exact"]
        value, lower, upper = (float(row[k]) for k in ("value", "lower", "upper"))
        assert value == de.value
        assert upper >= lower == value
        assert upper == de.value + de.slack
        if window_reaches_n:
            assert upper == value

    def test_kn_rows_have_bounds(self, capsys):
        code, out, _ = run_cli(["tv", "--n", "10", "--theta", "1"], capsys)
        assert code == 0
        assert "kn_tv" in out and "nkn_tv" in out


class TestSample:
    def test_deterministic_under_default_seed(self, capsys):
        a = run_cli(["sample", "--n", "50", "--theta", "1", "--sampler", "crp", "--m", "3"], capsys)
        b = run_cli(["sample", "--n", "50", "--theta", "1", "--sampler", "crp", "--m", "3"], capsys)
        assert a == b
        assert a[0] == 0

    def test_seed_flag_changes_draws(self, capsys):
        a = run_cli(
            ["sample", "--n", "50", "--theta", "1", "--sampler", "kn", "--m", "5", "--seed", "1"],
            capsys,
        )
        b = run_cli(
            ["sample", "--n", "50", "--theta", "1", "--sampler", "kn", "--m", "5", "--seed", "2"],
            capsys,
        )
        assert a[1] != b[1]

    def test_env_seed_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("ESF_SEED", "77")
        a = run_cli(["sample", "--n", "30", "--theta", "2", "--sampler", "kn", "--m", "4"], capsys)
        b = run_cli(
            ["sample", "--n", "30", "--theta", "2", "--sampler", "kn", "--m", "4", "--seed", "77"],
            capsys,
        )
        assert a[1] == b[1]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ESF_SEED", "77")
        flagged = run_cli(
            ["sample", "--n", "30", "--theta", "2", "--sampler", "kn", "--m", "4", "--seed", "5"],
            capsys,
        )
        monkeypatch.delenv("ESF_SEED")
        plain = run_cli(
            ["sample", "--n", "30", "--theta", "2", "--sampler", "kn", "--m", "4", "--seed", "5"],
            capsys,
        )
        assert flagged[1] == plain[1]

    def test_feller_reports_residual_bound(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "100", "--theta", "1", "--sampler", "feller", "--b-max", "2"],
            capsys,
        )
        assert code == 0
        assert "residual_bound" in out

    # sha256 of stdout, recorded when the replicates moved to one stream; a
    # change of random stream updates them on purpose
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "sample --sampler feller --n 1000 --theta 2 --m 3 --seed 42 --b-max 5",
                "1ccf74008300b573d8c491cafea32ad005fc9d187bea49b8b3f4e8c46a7efe38",
            ),
            (
                "sample --sampler crp --n 500 --theta 3 --m 4 --seed 7",
                "3898ea52977800ceb30895f49044885490eb0a9ded472edcd274f39e940a93f3",
            ),
        ],
    )
    def test_pinned_output_digest(self, argv, digest, capsys):
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("draws", ["kn --n 300 --theta 2", "crp --n 300 --theta 2",
                                       "feller --n 300 --theta 2 --b-max 3"])
    def test_shorter_run_prints_the_first_rows(self, draws, capsys):
        # the replicates are read in order from one stream: a rerun is
        # byte-identical, and below its header line --m 3 starts --m 6
        runs = {}
        for m in (3, 3, 6):
            code, out, _ = run_cli(f"sample --sampler {draws} --seed 5 --m {m}".split(), capsys)
            assert code == 0
            assert runs.setdefault(m, out) == out
        short, long = (runs[m].splitlines()[1:] for m in (3, 6))
        assert long[: len(short)] == short
        assert long[len(short)].startswith("3,")

    def test_no_parsed_value_leaks_between_calls(self, capsys):
        argv = ["sample", "--sampler", "feller", "--n", "50", "--theta", "2", "--seed", "1"]
        code, out, _ = run_cli(argv + ["--b-max", "3"], capsys)
        assert code == 0 and "residual_bound" in out
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and "residual_bound" not in out

    def test_bad_env_seed_only_fails_seeded_subcommands(self, capsys, monkeypatch):
        monkeypatch.setenv("ESF_SEED", "abc")
        code, out, err = run_cli(["moments", "--n", "5", "--theta", "2"], capsys)
        assert code == 0 and err == ""
        code, out, err = run_cli(["sample", "--sampler", "kn", "--n", "10", "--theta", "2"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ewens: error: "), err

    @pytest.mark.parametrize("raw", ["-5", "18446744073709551616"])
    def test_env_seed_out_of_range_is_refused(self, capsys, monkeypatch, raw):
        # wrapped modulo 2^64, it would draw with another seed than it records
        monkeypatch.setenv("ESF_SEED", raw)
        code, out, err = run_cli(["regime", "--coeff", "1", "--exponent", "1", "--n", "50", "--mc", "1000"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ewens: error: ESF_SEED"), err

    def test_flag_seed_out_of_range_is_refused(self, capsys):
        code, out, err = run_cli(
            ["sample", "--sampler", "kn", "--n", "10", "--theta", "2", "--seed", str(2**64 + 1)], capsys
        )
        assert code == 1 and out == ""
        assert err == f"ewens: error: argument --seed: must be in 0..{2**64 - 1}, got {2**64 + 1}\n"


class TestMoments:
    def test_fields_present(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "100", "--theta", "2"], capsys)
        assert code == 0
        for field in ("kn_mean", "kn_var", "mu", "sigma2", "t0n"):
            assert field in out

    def test_cycle_count_mean_at_n_1e6(self, capsys):
        # E C_1^n = n theta/(theta + n - 1), which an lgamma difference misses by 8e-11
        code, out, _ = run_cli(["moments", "--n", "1000000", "--theta", "2"], capsys)
        assert code == 0
        rows = dict(l.split(",") for l in out.splitlines() if not l.startswith("#"))
        assert abs(float(rows["cjn_mean_1"]) - 2e6 / 1000001) <= 1e-13


class TestBounds:
    def test_report_rows(self, capsys):
        code, out, _ = run_cli(["bounds", "--n", "50", "--theta", "5", "--b", "10"], capsys)
        assert code == 0
        for name in ("sum_p", "bh_lower", "bh_upper", "dbw_upper", "dnw_budget"):
            assert name in out

    def test_ld_rows_need_w(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--n", "50", "--theta", "1", "--b", "1", "--w", "5"], capsys
        )
        assert code == 0
        assert "ld_" in out

    def test_appendix_flag(self, capsys):
        code, out, _ = run_cli(["bounds", "--n", "50", "--theta", "2", "--appendix"], capsys)
        assert code == 0
        assert "a1_residual" in out


class TestLeadingTerm:
    def test_ratio_column_decreasing_toward_one(self, capsys):
        code, out, _ = run_cli(
            ["leading-term", "--theta", "2", "--b", "1", "--n-grid", "100,1000"], capsys
        )
        assert code == 0
        body = [l for l in out.strip().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in body[1:]]
        ratios = [float(r[-1]) for r in rows]
        assert abs(ratios[1] - 1) < abs(ratios[0] - 1)


class TestRegime:
    def test_classification_document(self, capsys):
        code, out, _ = run_cli(["regime", "--coeff", "1", "--exponent", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "B"
        assert doc["c"] == 1.0
        assert doc["limit_law"]["kind"] == "normal"

    def test_at_n_block(self, capsys):
        code, out, _ = run_cli(
            ["regime", "--coeff", "0.5", "--exponent", "2", "--n", "100"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "C2"
        assert "mu" in doc["at_n"] and "p_singleton_exact" in doc["at_n"]


class TestFclt:
    def test_summary_and_csv(self, capsys, tmp_path):
        target = tmp_path / "vals.csv"
        code, out, _ = run_cli(
            [
                "fclt",
                "--n",
                "500",
                "--theta",
                "1",
                "--m",
                "1000",
                "--out",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["which"] == "X4" and doc["stat"] == "sup"
        assert 0.0 <= doc["ks"] <= 1.0
        assert doc["dense_window"] == 16  # 16 theta < n: thinned points past cell 15
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2 + 1000  # comment, header, values

    def test_json_format(self, capsys):
        argv = "fclt --n 100 --theta 2 --m 1000 --format json --seed 3".split()
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["value"] and len(doc["rows"]) == 1000
        summary = json.loads(err)
        assert summary["m"] == 1000
        assert summary["dense_window"] == 32  # 16 theta < n: thinned points past cell 31

    @pytest.mark.parametrize("n,m", [(3 * 10**15, 4096), (10**17, 1000)])
    def test_keys_fit_int64_at_huge_n(self, n, m, capsys):
        # 4096 replicates' (replicate, cell) keys pass 2^63 at n = 3e15, so the
        # block is cut to 3074 replicates, and to 92 at n = 1e17, where a
        # replicate's weight n is past float64's exact integers
        code, out, err = run_cli(f"fclt --which X4 --stat sup --theta 1 --m {m} --n {n}".split(), capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 2 + m

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["fclt", "--n", "400", "--theta", "1", "--m", "1000"]
        a = run_cli(argv + ["--out", str(tmp_path / "a.csv")], capsys)
        b = run_cli(argv + ["--out", str(tmp_path / "b.csv")], capsys)
        assert a[1] == b[1]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "which,stat,reference",
        [
            ("X1", "sup", "brownian_sup_cdf"),
            ("X1", "l2", "brownian_l2_cdf"),
            ("X2", "sup", "brownian_sup_cdf"),
            ("X2", "l2", "brownian_l2_cdf"),
            ("X3", "sup", "gaussian_simulation"),
            ("X3", "l2", "gaussian_simulation"),
            ("X4", "sup", "kolmogorov_cdf"),
            ("X4", "l2", "cramer_von_mises_cdf"),
            ("X5", "sup", "gaussian_simulation"),
            ("X5", "l2", "gaussian_simulation"),
        ],
    )
    def test_reference_names_its_law(self, which, stat, reference, capsys):
        argv = f"fclt --which {which} --stat {stat} --n 300 --theta 2 --m 1000 --ref-m 200 --grid-m 1024 --seed 5"
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 0, err
        assert json.loads(err)["reference"] == reference

    @pytest.mark.parametrize("which,stat", [("X1", "sup"), ("X1", "l2"), ("X2", "sup"), ("X2", "l2"), ("X4", "sup"), ("X4", "l2")])
    def test_exact_pairs_ignore_the_reference_grid(self, which, stat, capsys):
        # a closed-form law: --grid-m and --ref-m size only the simulated reference
        argv = f"fclt --which {which} --stat {stat} --n 300 --theta 2 --m 1000 --seed 5".split()
        base = run_cli(argv, capsys)
        other = run_cli(argv + ["--grid-m", "1024", "--ref-m", "100"], capsys)
        assert base[0] == 0 and base == other

    def test_x2_past_its_table_exits_one(self, capsys):
        # the table would take 40 GB at n = 1e9; refused before any allocation
        code, out, err = run_cli(["fclt", "--which", "X2", "--n", "1000000000", "--theta", "2"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ewens: error: X2 keeps a harmonic table"), err


class TestCheckCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(["check", "--quick"], capsys)
        assert code == 0
        assert "ok" in out
        assert "FAIL" not in out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run_cli(["pmf", "--n", "3"], capsys)[0] == 1

    def test_unknown_subcommand_is_one(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    def test_invalid_values_are_one(self, capsys):
        # each error line names the offending value
        for argv, named in (
            ("pmf --n -3 --theta 1 --dist kn", "n must"),
            ("pmf --n 3 --theta -1 --dist kn", "theta must"),
            ("fclt --n 100 --theta 2 --m 0", "--m:"),
            ("sample --sampler kn --n 100 --theta 2 --m -3", "--m:"),
            ("leading-term --theta 2 --b 3 --n-grid a,b", "--n-grid:"),
            ("leading-term --theta 2 --b 3 --n-grid ,", "--n-grid:"),
            ("regime --coeff 1 --exponent 0.5 --n 100 --mc -1", "--mc:"),
            ("regime --coeff 1 --exponent 0.5 --n 100 --mc 200", "--mc:"),
            ("fclt --n 100 --theta 2 --m 999", "--m:"),
            ("fclt --n 100 --theta 2 --m 1000 --ref-m 99", "--ref-m:"),
            ("fclt --n 100 --theta 2 --m 1000 --grid-m 1023", "--grid-m:"),
            ("sample --sampler kn --n 10 --theta 2 --b-max 5 --seed 1", "--b-max"),
            ("sample --sampler crp --n 10 --theta 2 --tail-bound 0.1 --seed 1", "--tail-bound"),
            ("sample --sampler feller --n 10 --theta 1e200 --b-max 1", "tail_bound="),
            ("pmf --n 5 --theta 2 --dist esf --method stirling", "--method"),
            ("pmf --n 5 --theta 2 --dist singleton --method bernoulli_convolution", "--method"),
            ("pmf --n 600 --theta 2 --dist kn --method stirling", "use --method bernoulli_convolution"),
            ("leading-term --theta 1e5 --b 1500 --n-grid 2000", "theta=100000, b=1500"),
            ("bounds --n 10 --theta 2 --b 5 --w 1e8", "theta=2, b=5"),
            ("regime --coeff 1 --exponent 1 --mc 1000", "--n"),
            ("sample --sampler kn --n 10 --theta 2 --seed 18446744073709551617", "--seed:"),
            ("sample --sampler kn --n 10 --theta 2 --seed -1", "--seed:"),
            (f"fclt --which X4 --stat sup --theta 1 --m 1000 --n {2**62}", "below 2^62"),
            ("fclt --which X1 --stat l2 --theta 1 --m 1000 --n 20000000000000000000", "below 2^62"),
        ):
            code, out, err = run_cli(argv.split(), capsys)
            assert code == 1, argv
            assert out == "" and len(err.splitlines()) == 1, argv
            assert err.startswith("ewens: error: "), argv
            assert named in err, (argv, err)

    def test_extreme_theta_bounds_hold(self, capsys):
        # theta^2 under- or overflows here; the closed forms must not
        code, out, err = run_cli("tv --n 10 --theta 1e200".split(), capsys)
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert [r["name"] for r in rows] == ["kn_tv", "nkn_tv"]
        for r in rows:
            assert float(r["closed_form_bound"]) >= float(r["lower"]), r
        code, out, err = run_cli("bounds --n 10 --theta 1e-300".split(), capsys)
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert {r["name"] for r in rows} >= {"sum_q", "sum_q2"}
        assert all(r["satisfied"] == "1" for r in rows), rows

    def test_centering_finite_at_tiny_theta(self, capsys):
        # n/theta overflows; mu_A = theta log(1 + n/theta) is about 7.1e-304
        mu_a = 1e-306 * (math.log(1000.0) - math.log(1e-306))
        code, out, _ = run_cli("moments --n 1000 --theta 1e-306".split(), capsys)
        assert code == 0
        rows = {r["name"]: float(r["value"]) for r in csv.DictReader(out.splitlines()[1:])}
        assert math.isclose(rows["mu"], mu_a, rel_tol=1e-12)
        assert math.isclose(rows["sigma2"], mu_a - 1e-306, rel_tol=1e-12)
        code, out, err = run_cli("tv --n 1000 --theta 1e-306 --center mu_A".split(), capsys)
        assert code == 0 and err == ""
        rows = {r["name"]: r for r in csv.DictReader(out.splitlines()[1:])}
        assert math.isclose(float(rows["kn_tv"]["lam"]), mu_a, rel_tol=1e-12)
        # K_n >= 1 while Poisson(mu_A) is 0 with probability 1 - 7e-304
        assert float(rows["kn_tv"]["value"]) == 1.0
        code, out, _ = run_cli("bounds --n 1000 --theta 1e-306".split(), capsys)
        assert code == 0
        rows = {r["name"]: float(r["value"]) for r in csv.DictReader(out.splitlines()[1:])}
        assert rows["yannaros_mu_A"] == 1.0

    @pytest.mark.parametrize(
        "argv", ["bounds --n 10 --theta 1e-320", "bounds --n 1000 --theta 1e308"]
    )
    def test_bounded_rows_finite_at_float_limits(self, argv, capsys):
        # n/theta overflows in the first and n*theta in the second
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 0 and err == ""
        rows = [r for r in csv.DictReader(out.splitlines()[1:]) if r["lower"] or r["upper"]]
        assert {"sum_p_gap", "sum_p2_gap"} <= {r["name"] for r in rows}
        for r in rows:
            assert math.isfinite(float(r["value"])) and r["satisfied"] == "1", r

    def test_errors_go_to_stderr(self, capsys):
        code, out, err = run_cli(["pmf", "--n", "3"], capsys)
        assert out == ""
        assert err != ""


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats takes about a second, which every CLI call would pay
    env = {**os.environ, "PYTHONPATH": str(Path(ewens.__file__).parents[1])}
    script = "import sys, ewens.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert done.stdout.strip() == "False"
