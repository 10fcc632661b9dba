import json
import subprocess
import sys

import pytest

from ringlower.parser import parse_formula
from ringlower.passes import encode_union
from ringlower.ring import ZMod


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ringlower.cli", *args],
        capture_output=True,
        text=True,
    )


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


class TestCompile:
    def test_sound_run_over_z5(self, tmp_path):
        # the disjunction lowers to one atom, the conjunction needs a fold
        for formula, stages in [
            ("params t . t != 0 | t - 1 = 0",
             ["eliminate_inequalities", "eliminate_disjunctions"]),
            ("params t . t != 0 & t - 1 = 0",
             ["eliminate_inequalities", "fold_to_single"]),
        ]:
            report_path = tmp_path / "report.json"
            result = run_cli(
                "compile",
                "--formula", formula,
                "--ring", "zmod:5",
                "--target", "single",
                "--json", str(report_path),
            )
            assert result.returncode == 0, result.stderr
            report = json.loads(report_path.read_text())
            assert report["schema_version"] == 1
            assert report["sound"] is True
            assert [v["stage"] for v in report["stage_verdicts"]] == stages
            assert all(v["verdict"] == "EQUAL" for v in report["stage_verdicts"])
            assert report["output"]["class"] == "SINGLE_EQUATION"
            # stdout carries the final formula, reparseable
            parse_formula(result.stdout.strip())

    def test_missing_axes_over_a_product(self):
        result = run_cli(
            "compile",
            "--formula", "params t . t != 0 | t - 1 = 0",
            "--ring", "product:(zmod:2,zmod:3)",
            "--target", "single",
        )
        assert result.returncode == 3
        assert "axes" in result.stderr

    def test_zbox_run_is_heuristic(self, tmp_path):
        report_path = tmp_path / "report.json"
        result = run_cli(
            "compile",
            "--formula", "params t . t != 0",
            "--ring", "zbox:8",
            "--target", "pe",
            "--json", str(report_path),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(report_path.read_text())
        assert report["heuristic"] is True
        assert report["config"]["verify"] == "heuristic"
        assert all(
            v["verdict"] == "HEURISTIC_EQUAL" for v in report["stage_verdicts"]
        )

    def test_finite_ring_run_is_never_heuristic(self, tmp_path):
        report_path = tmp_path / "report.json"
        result = run_cli(
            "compile",
            "--formula", "params t . t != 0",
            "--ring", "zmod:5",
            "--verify", "heuristic",
            "--json", str(report_path),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(report_path.read_text())
        assert report["heuristic"] is False
        assert report["config"]["verify"] == "exhaustive"
        assert all(v["verdict"] == "EQUAL" for v in report["stage_verdicts"])

    def test_parse_error_exit_code(self):
        result = run_cli("compile", "--formula", "params t . t +", "--ring", "zmod:5")
        assert result.returncode == 2

    def test_exhaustive_verification_needs_finite_ring(self):
        result = run_cli(
            "compile",
            "--formula", "params t . t = 0",
            "--ring", "zbox:5",
            "--verify", "exhaustive",
        )
        assert result.returncode == 2

    def test_verification_failure_exit_code(self, tmp_path):
        # force the unsound zmod:6 axes gadget through with the override:
        # the oracle must catch it and the exit code must say so
        config = tmp_path / "gadgets.ini"
        gs_text = run_cli("find-gadgets", "--ring", "zmod:6").stdout
        config.write_text(gs_text)
        result = run_cli(
            "compile",
            "--formula", "params t . t = 0 | t - 1 = 0",
            "--ring", "zmod:6",
            "--target", "conj",
            "--gadgets", str(config),
            "--allow-unverified",
        )
        assert result.returncode == 4
        assert "verification failed" in result.stderr

    def test_off_mode_skips_verdicts(self, tmp_path):
        report_path = tmp_path / "report.json"
        result = run_cli(
            "compile",
            "--formula", "params t . t = 0 & t - 1 = 0",
            "--ring", "zmod:5",
            "--verify", "off",
            "--json", str(report_path),
        )
        assert result.returncode == 0
        report = json.loads(report_path.read_text())
        assert report["stage_verdicts"] == []
        assert report["sound"] is None


class TestEval:
    def test_axes_by_union_encoding_over_z4(self, tmp_path):
        sys0 = parse_formula("params z w . z = 0")
        sys1 = parse_formula("params z w . w = 0")
        union = encode_union(sys0, sys1, ZMod(4)).formula
        formula_file = tmp_path / "axes.formula"
        formula_file.write_text(str(union) + "\n")
        result = run_cli("eval", "--formula-file", str(formula_file), "--ring", "zmod:4")
        assert result.returncode == 0
        assert len(result.stdout.strip().splitlines()) == 7

    def test_axes_polynomial_over_z5(self):
        result = run_cli("eval", "--formula", "params x y . x*y = 0", "--ring", "zmod:5")
        assert len(result.stdout.strip().splitlines()) == 9

    def test_unsatisfiable(self):
        result = run_cli("eval", "--formula", "params . 1 = 0", "--ring", "zmod:3")
        assert result.returncode == 0
        assert result.stdout.strip() == ""

    def test_count(self):
        result = run_cli(
            "eval", "--formula", "params x y . x*y = 0", "--ring", "zmod:4", "--count"
        )
        assert result.stdout.strip() == "8"

    def test_json_output(self, tmp_path):
        out = tmp_path / "set.json"
        run_cli(
            "eval", "--formula", "params t . t^2 - t = 0", "--ring", "zmod:6",
            "--json", str(out),
        )
        data = json.loads(out.read_text())
        assert data["tuples"] == [[0], [1], [3], [4]]
        assert data["exhaustive"] is True

    def test_zbox_eval_warns_non_exhaustive(self):
        result = run_cli("eval", "--formula", "params t . t = 0", "--ring", "zbox:3")
        assert result.stdout.strip() == "0"
        assert "non-exhaustive" in result.stderr


class TestFindGadgets:
    def test_z2_has_a_quadratic_origin(self):
        result = run_cli("find-gadgets", "--ring", "zmod:2")
        assert result.returncode == 0
        assert "origin = x^2 + x*y + y^2" in result.stdout

    def test_z6_notes_the_axes_failure(self):
        result = run_cli("find-gadgets", "--ring", "zmod:6")
        assert "origin =" in result.stdout
        assert "REFUTED" in result.stdout
        assert "unavailable" in result.stdout

    def test_zero_ring(self):
        result = run_cli("find-gadgets", "--ring", "zmod:1")
        assert result.returncode == 0
        assert "origin = 0" in result.stdout

    def test_rejects_infinite_ring(self):
        result = run_cli("find-gadgets", "--ring", "zbox:5")
        assert result.returncode == 2

    def test_idempotent(self, tmp_path):
        first = run_cli("find-gadgets", "--ring", "zmod:4").stdout
        second = run_cli("find-gadgets", "--ring", "zmod:4").stdout
        assert first == second


def test_find_gadgets_large_modulus_with_degree_cap(tmp_path):
    # degree-1 search keeps the candidate space tiny for larger moduli
    result = run_cli("find-gadgets", "--ring", "zmod:25", "--max-degree", "1")
    assert result.returncode == 0
    assert "no origin gadget exists" in result.stdout
    assert "nonzero = params t . exists x . t*x - 5 = 0" in result.stdout


class TestVerify:
    def test_heuristic_equal_over_zbox(self, tmp_path):
        left = tmp_path / "left.formula"
        right = tmp_path / "right.formula"
        left.write_text("params t . exists x . t - 2*x = 0\n")
        right.write_text("params t . exists x . 2*x - t = 0\n")
        result = run_cli("verify", str(left), str(right), "--ring", "zbox:6")
        assert result.returncode == 0
        assert result.stdout.strip() == "HEURISTIC_EQUAL"

    def test_equal(self, tmp_path):
        left = tmp_path / "left.formula"
        right = tmp_path / "right.formula"
        left.write_text("params t . t = 0 | t - 1 = 0\n")
        right.write_text("params t . t^2 - t = 0\n")
        result = run_cli("verify", str(left), str(right), "--ring", "zmod:5")
        assert result.returncode == 0
        assert result.stdout.strip() == "EQUAL"

    def test_differ_with_witness(self, tmp_path):
        left = tmp_path / "left.formula"
        right = tmp_path / "right.formula"
        left.write_text("params t . t = 0\n")
        right.write_text("params t . t^2 = 0\n")
        result = run_cli("verify", str(left), str(right), "--ring", "zmod:4")
        assert result.returncode == 4
        assert result.stdout.strip() == "DIFFER (2)"


@pytest.mark.parametrize(
    "command, box",
    [
        ("eval", ["--param-box", "-3"]),
        ("eval", ["--witness-box", "-1"]),
        ("compile", ["--param-box", "-2"]),
        ("verify", ["--param-box", "-1"]),
    ],
)
def test_negative_box_is_a_usage_error(tmp_path, command, box):
    formula = "params t . t != 0"
    if command == "verify":
        path = tmp_path / "f.formula"
        path.write_text(formula + "\n")
        source = [str(path), str(path)]
    else:
        source = ["--formula", formula]
    result = run_cli(command, *source, "--ring", "zbox:3", *box)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1 and "box must be non-negative" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["compile", "--formula-file", "MISSING", "--ring", "zmod:5"], "MISSING"),
        (["eval", "--formula-file", "MISSING", "--ring", "zmod:5"], "MISSING"),
        (["compile", "--formula", "params t . t != 0", "--ring", "zmod:5",
          "--gadgets", "MISSING"], "MISSING"),
        (["verify", "MISSING", "MISSING", "--ring", "zmod:5"], "MISSING"),
        (["compile", "--formula", "params t . t != 0", "--ring", "zmod:5",
          "--max-degree", "-1"], "--max-degree must be non-negative"),
        (["find-gadgets", "--ring", "zmod:4", "--max-degree", "-1"],
         "--max-degree must be non-negative"),
    ],
)
def test_bad_path_or_degree_is_a_usage_error(tmp_path, args, message):
    missing = str(tmp_path / "missing")
    result = run_cli(*(missing if arg == "MISSING" else arg for arg in args))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert message.replace("MISSING", missing) in result.stderr


NOT_UTF8 = b"params t . t = 0  # caf\xe9\n"
COMPILE_WITH_GADGETS = [
    "compile", "--formula", "params t . t != 0", "--ring", "zmod:5", "--gadgets", "FILE",
]


@pytest.mark.parametrize(
    "args, content, message",
    [
        (["eval", "--formula-file", "FILE", "--ring", "zmod:5"], NOT_UTF8,
         "error: FILE is not UTF-8 text"),
        (["compile", "--formula-file", "FILE", "--ring", "zmod:5"], NOT_UTF8,
         "error: FILE is not UTF-8 text"),
        (["verify", "FILE", "FILE", "--ring", "zmod:5"], NOT_UTF8,
         "error: FILE is not UTF-8 text"),
        (COMPILE_WITH_GADGETS, b"[zmod:5]\norigin = x^2 + y^2  # \xff\n",
         "error: FILE is not UTF-8 text"),
        (COMPILE_WITH_GADGETS, b"origin = x^2 + y^2\n",
         "gadget config error: File contains no section headers."),
        (COMPILE_WITH_GADGETS, b"[zmod:5]\norigin = x^2 + y^2\norigin = x^2 + x*y + y^2\n",
         "gadget config error: While reading from"),
    ],
    ids=["eval-formula-file", "compile-formula-file", "verify-operand", "gadgets-file",
         "no-section-header", "duplicate-key"],
)
def test_non_utf8_file_or_malformed_config_is_a_usage_error(tmp_path, args, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    result = run_cli(*(str(path) if arg == "FILE" else arg for arg in args))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(message.replace("FILE", str(path)))


def test_zero_param_box_is_the_origin_window():
    result = run_cli(
        "eval", "--formula", "params t . t = 0 | t - 1 = 0", "--ring", "zbox:3",
        "--param-box", "0",
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0"


def test_reports_are_deterministic(tmp_path):
    reports = []
    for index in range(2):
        path = tmp_path / f"report{index}.json"
        result = run_cli(
            "compile",
            "--formula", "params t . t != 0 | t - 1 = 0",
            "--ring", "zmod:5",
            "--target", "single",
            "--seed", "7",
            "--json", str(path),
        )
        assert result.returncode == 0
        reports.append(strip_timings(json.loads(path.read_text())))
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
