"""Command-line interface tests.

Every assertion goes through main(argv) so the full parse, dispatch, and
emit path is exercised. Output files are written to tmp_path; determinism
is asserted byte for byte.
"""

import json
import os

import pytest

from ewens.cli import main


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


class TestMoments:
    def test_fields_present(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "100", "--theta", "2"], capsys)
        assert code == 0
        for field in ("kn_mean", "kn_var", "mu", "sigma2", "t0n"):
            assert field in out


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
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2 + 1000  # comment, header, values

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["fclt", "--n", "400", "--theta", "1", "--m", "1000"]
        a = run_cli(argv + ["--out", str(tmp_path / "a.csv")], capsys)
        b = run_cli(argv + ["--out", str(tmp_path / "b.csv")], capsys)
        assert a[1] == b[1]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
        for argv in (
            "pmf --n -3 --theta 1 --dist kn",
            "pmf --n 3 --theta -1 --dist kn",
            "tv --n 10 --theta 1e200",
            "bounds --n 10 --theta 1e-300",
            "fclt --n 100 --theta 2 --m 0",
            "sample --sampler kn --n 100 --theta 2 --m -3",
        ):
            code, out, err = run_cli(argv.split(), capsys)
            assert code == 1, argv
            assert out == "" and len(err.splitlines()) == 1, argv
            assert err.startswith("ewens: error: "), argv

    def test_errors_go_to_stderr(self, capsys):
        code, out, err = run_cli(["pmf", "--n", "3"], capsys)
        assert out == ""
        assert err != ""
