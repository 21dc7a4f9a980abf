"""Command-line interface: verbs, exit codes, JSON determinism."""

import json
import os
import subprocess
import sys

import pytest

import qzonal
from qzonal.cli import main, parse_uq_expression
from qzonal.coeff import Laurent
from qzonal.qmatrix import QPolynomial, quantum_det
from qzonal.symplectic import _det_words, _row_sorted_polynomial, _word_layout
from qzonal.uq_action import LEFT, act, gen_e, gen_f, q_weight

HERE = os.path.dirname(os.path.abspath(__file__))
# bench command lines and their pinned outputs, read and never written
GOLDEN = os.path.join(HERE, "..", "bench", "golden")
GOLDEN_ARGV = {
    "smoke-pfaffian-n4": ("pfaffian", "--N", "4", "--verify"),
    "smoke-verify-n4": ("verify", "--suite", "all", "--N", "4", "--deg", "2"),
    "smoke-zonal-1-n4": ("zonal", "--mu", "1", "--N", "4", "--compare"),
    "zonal-2-n4": ("zonal", "--mu", "2", "--N", "4", "--compare"),
    "verify-n6-d2": ("verify", "--suite", "all", "--N", "6", "--deg", "2"),
    "pfaffian-n8": ("pfaffian", "--N", "8", "--verify"),
}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _wrong_pfaffian(monkeypatch):
    """Make the packed Pf(4) words differ from det(4) in two terms; returns
    them as a polynomial."""
    words = dict(_det_words(4))
    first = min(words)
    words[first] *= 2                    # changed coefficient
    words[_word_layout(4)[2] + 1] = 1    # extra word: v x11 x21 x31 x41
    monkeypatch.setattr("qzonal.symplectic._pfaffian_words", lambda r, N: words)
    return _row_sorted_polynomial((1, 2, 3, 4), 4, words)


class TestExitCodes:
    def test_detq_ok(self, capsys):
        rc, out, _ = run(capsys, "detq", "--N", "2", "--format", "json",
                         "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["polynomial"] == quantum_det(2).to_json()

    def test_pfaffian_verify_ok(self, capsys):
        rc, out, _ = run(capsys, "pfaffian", "--N", "4", "--verify",
                         "--format", "json", "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        names = {c["name"]: c for c in obj["checks"]}
        assert names["pfaffian_equals_det"]["residual_terms"] == 0

    def test_pfaffian_mismatch_fails_verification(self, capsys, monkeypatch):
        wrong = _wrong_pfaffian(monkeypatch)
        rc, out, _ = run(capsys, "pfaffian", "--N", "4", "--verify",
                         "--format", "json", "--no-timing")
        obj = json.loads(out)
        check = {c["name"]: c for c in obj["checks"]}["pfaffian_equals_det"]
        assert rc == 2 and obj["pass"] is False and check["pass"] is False
        assert check["residual_terms"] == (wrong - quantum_det(4)).term_count() == 2

    def test_odd_pfaffian_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "pfaffian", "--N", "3")
        assert rc == 1
        assert "usage error" in err

    def test_bad_partition_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "zonal", "--mu", "1,2", "--N", "4")
        assert rc == 1

    def test_unknown_verb_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 1

    def test_negative_N_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "detq", "--N", "-2")
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_zero_N_dimensions_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "verify", "--suite", "dimensions", "--N", "0")
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("deg", ["1", "-3"])
    def test_no_dimension_checks_is_usage_error(self, capsys, deg):
        rc, out, err = run(capsys, "verify", "--suite", "dimensions", "--N", "2",
                           "--deg", deg)
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("document,expr", [
        pytest.param(None, "e1", id="missing-file"),
        pytest.param("{oops", "e1", id="invalid-json"),
        pytest.param('{"N": 2}', "e1", id="no-terms"),
        pytest.param('{"N": 2, "terms": [{"word": [[1, 3]], "coeff": {"0": "1"}}]}',
                     "e1", id="word-out-of-range"),
        pytest.param('{"N": 2, "terms": []}', "e5", id="e-out-of-range"),
        pytest.param('{"N": 2, "terms": []}', "q[1]", id="q-out-of-range"),
        pytest.param("[1]", "e1", id="not-an-object"),
        pytest.param('{"N": 2, "terms": []}', "", id="empty-expr"),
        pytest.param('{"N": 2, "terms": []}', " ", id="blank-expr"),
        pytest.param('{"N": 2, "terms": []}', "+", id="sign-only-expr"),
        pytest.param('{"N": 2, "terms": []}', "f1+", id="trailing-plus"),
        pytest.param('{"N": 2, "terms": []}', "f1-", id="trailing-minus"),
        pytest.param('{"N": 2, "terms": [{"word": [[1, 1]], "coeff": ["1"]}]}',
                     "0", id="coeff-list"),
        pytest.param('{"N": 2, "terms": [{"word": [[1, 1]], "coeff": "1"}]}',
                     "0", id="coeff-string"),
        pytest.param('{"N": 2.5, "terms": []}', "0", id="float-N"),
        pytest.param('{"N": "2", "terms": []}', "0", id="string-N"),
        pytest.param('{"N": true, "terms": []}', "0", id="boolean-N"),
        pytest.param('{"N": 0, "terms": []}', "0", id="zero-N"),
        pytest.param('{"N": 2, "terms": [{"word": [[1, 1.9]], "coeff": {"0": "1"}}]}',
                     "0", id="float-word-index"),
        pytest.param('{"N": 2, "terms": [{"word": [[1, 1]], "coeff": {"0": 1.7}}]}',
                     "0", id="float-coefficient"),
    ])
    def test_bad_act_input_is_usage_error(self, tmp_path, capsys, document, expr):
        src = tmp_path / "p.json"
        if document is not None:
            src.write_text(document)
        rc, out, err = run(capsys, "act", "--expr", expr, "--input", str(src))
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_macdonald_n_is_usage_error(self, capsys, n):
        rc, out, err = run(capsys, "macdonald", "--lambda", "0", "--n", n)
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--n" in err

    def test_singular_substitution_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "macdonald", "--lambda", "2,1", "--n", "3",
                           "--q", "1", "--t", "1")
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "denominator" in err

    def test_bad_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QZ_CAP", "abc")
        rc, out, err = run(capsys, "verify", "--suite", "dimensions", "--N", "4",
                           "--deg", "2")
        assert rc == 1 and not out
        assert err.startswith("usage error:") and "QZ_CAP" in err


    @pytest.mark.parametrize("argv,cap", [
        (("detq", "--N", "40"), None), (("pfaffian", "--N", "40"), None),
        (("detq", "--N", "5"), "100"), (("pfaffian", "--N", "6", "--verify"), "700"),
        # e1 at N = 4 has 8 terms; e1^2 at N = 8 has 1,104
        (("verify", "--suite", "invariance", "--N", "4", "--deg", "4"), "1"),
        (("verify", "--suite", "invariance", "--N", "8", "--deg", "8"), "1000"),
        # 2 * (N + C(N,2) + C(N,3) + 4 C(N,4)) relation checks: 4,556 at N = 12
        (("verify", "--suite", "relations", "--N", "12"), "10"),
        (("verify", "--suite", "relations", "--N", "40"), "10"),
        # the zonal seed det(4)^5: det(4)^3 has 2,008 terms
        (("zonal", "--mu", "5,5", "--N", "4"), "1000")])
    def test_term_count_over_cap_fails_fast(self, capsys, monkeypatch, argv, cap):
        if cap is not None:
            monkeypatch.setenv("QZ_CAP", cap)
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and not out
        assert err.count("\n") == 1 and "exceed the cap" in err

    def test_closed_stdout_is_quiet(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qzonal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "qzonal.cli", "pfaffian", "--N", "6",
                "--format", "json"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdout.close()          # the reader leaves before any output
        err = proc.stderr.read().decode()
        assert proc.wait() == 0
        assert err == ""
        # fd 1 closed before start (`qz ... >&-`): sys.stdout is None
        proc = subprocess.run(
            argv[:5] + ["4", "--verify"], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env,
            preexec_fn=lambda: os.close(1))
        assert proc.returncode == 0
        assert proc.stderr.decode() == ""


class TestTextReport:
    def test_passing_report(self, capsys):
        rc, out, _ = run(capsys, "detq", "--N", "2")
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "[detq] pass=True"
        assert lines[1] == "  ok   {'name': 'terms', 'value': 2}"
        assert lines[2].startswith('  polynomial: {"N": 2, "terms": [')
        assert lines[3].startswith("  timing_ms: ") and len(lines) == 4
        assert float(lines[3].split(": ")[1]) >= 0

    def test_failing_check_is_marked(self, capsys, monkeypatch):
        _wrong_pfaffian(monkeypatch)
        rc, out, _ = run(capsys, "pfaffian", "--N", "4", "--verify", "--no-timing")
        assert rc == 2
        assert out.splitlines() == [
            "[pfaffian] pass=False",
            "  ok   {'name': 'terms', 'value': 25}",
            "  FAIL {'name': 'pfaffian_equals_det', 'residual_terms': 2}",
        ]


class TestVerifySuites:
    def test_relations_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "relations", "--N", "4",
                         "--format", "json", "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert all(c["residual_terms"] == 0 for c in obj["checks"])

    def test_dimensions_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "dimensions", "--N", "4",
                         "--deg", "4", "--format", "json", "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        dims = {c["m"]: c for c in obj["checks"]
                if c["name"] == "bi_invariant_dimension"}
        assert dims[1]["computed"] == 1 and dims[2]["computed"] == 2
        spans = [c for c in obj["checks"] if c["name"].startswith("kernel_span")]
        assert spans and all(c["pass"] for c in spans)


class TestZonalVerb:
    def test_zonal_with_comparison(self, capsys):
        rc, out, _ = run(capsys, "zonal", "--mu", "2", "--N", "4", "--compare",
                         "--format", "json", "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        conv = {e["convention"]: e["match"] for e in obj["comparison"]}
        assert conv["(q^2, q^4)"] is True
        assert conv["(q^2, q^-4)"] is False


class TestMacdonaldVerb:
    def test_plain(self, capsys):
        rc, out, _ = run(capsys, "macdonald", "--lambda", "1", "--n", "2",
                         "--format", "json", "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        assert obj["polynomial"]["coeffs"] == \
            [{"lambda": [1], "value": {"num": "1", "den": "1"}}]

    def test_row_two_coefficient(self, capsys):
        rc, out, _ = run(capsys, "macdonald", "--lambda", "2", "--n", "2",
                         "--format", "json", "--no-timing")
        obj = json.loads(out)
        vals = {tuple(c["lambda"]): c["value"] for c in obj["polynomial"]["coeffs"]}
        assert vals[(2,)] == {"num": "1", "den": "1"}
        assert vals[(1, 1)] == {"num": "q*t - q + t - 1", "den": "q*t - 1"}

    def test_q_substitution_alone(self, capsys):
        rc, out, _ = run(capsys, "macdonald", "--lambda", "2", "--n", "2",
                         "--q", "q^2", "--format", "json", "--no-timing")
        obj = json.loads(out)
        vals = {tuple(c["lambda"]): c["value"] for c in obj["polynomial"]["coeffs"]}
        assert rc == 0 and obj["inputs"]["t"] == "t"
        assert vals[(1, 1)] == {"num": "q^2*t - q^2 + t - 1", "den": "q^2*t - 1"}

    def test_signed_substitution_value(self, capsys):
        # a value starting with '-' is read as the value, not as an option
        argv = ("macdonald", "--lambda", "3,1", "--n", "3", "--q", "2*q*t")
        runs = [run(capsys, *argv, *t, "--format", "json", "--no-timing")
                for t in (("--t", "-3*t^2"), ("--t=-3*t^2",))]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert json.loads(runs[0][1])["inputs"]["t"] == "-3*t^2"
        # a value starting with '--' is still an option
        rc, out, err = run(capsys, *argv, "--t", "--format", "json")
        assert rc == 1 and not out and "--t" in err

    def test_schur_substitution(self, capsys):
        rc, out, _ = run(capsys, "macdonald", "--lambda", "2", "--n", "2",
                         "--t", "q", "--format", "json", "--no-timing")
        obj = json.loads(out)
        vals = {tuple(c["lambda"]): c["value"] for c in obj["polynomial"]["coeffs"]}
        assert vals[(1, 1)] == {"num": "1", "den": "1"}


class TestTrailingZeroParts:
    @pytest.mark.parametrize("verb,size,part,typed,trimmed,result", [
        ("zonal", ("--N", "2"), "mu", "1,0", "1", "vector"),
        ("macdonald", ("--n", "2"), "lambda", "2,0,0", "2", "polynomial"),
    ], ids=["zonal", "macdonald"])
    def test_trailing_zeros_are_accepted(self, capsys, verb, size, part, typed,
                                         trimmed, result):
        objs = []
        for text in (typed, trimmed):
            rc, out, _ = run(capsys, verb, *size, f"--{part}", text,
                             "--format", "json", "--no-timing")
            assert rc == 0
            objs.append(json.loads(out))
        assert objs[0][result] == objs[1][result]
        # the echoed input stays as typed
        assert objs[0]["inputs"][part] == [int(x) for x in typed.split(",")]


class TestActVerb:
    def test_file_round_trip(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        dst = tmp_path / "out.json"
        src.write_text(json.dumps(QPolynomial.generator(2, 1, 2).to_json()))
        rc, out, _ = run(capsys, "act", "--expr", "e1", "--side", "left",
                         "--input", str(src), "--output", str(dst),
                         "--format", "json", "--no-timing")
        assert rc == 0
        assert QPolynomial.from_json(json.loads(dst.read_text())) == \
            QPolynomial.generator(2, 1, 1)

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(QPolynomial.generator(2, 1, 2).to_json()))
        rc, out, err = run(capsys, "act", "--expr", "e1", "--input", str(src),
                           "--output", str(tmp_path / "missing" / "out.json"))
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestExpressionParser:
    def test_atoms(self):
        assert parse_uq_expression("e1", 3) == gen_e(3, 1)
        assert parse_uq_expression("f2", 3) == gen_f(3, 2)
        assert parse_uq_expression("q[0,1,0]", 3) == q_weight(3, (0, 2, 0))
        assert parse_uq_expression("q½[0,1,0]", 3) == q_weight(3, (0, 1, 0))
        assert parse_uq_expression("qh[1,-1,0]", 3) == q_weight(3, (1, -1, 0))

    def test_composition_and_sum(self):
        got = parse_uq_expression("e1 f1 - f1 e1", 2)
        want = gen_e(2, 1) * gen_f(2, 1) - gen_f(2, 1) * gen_e(2, 1)
        assert got == want
        assert parse_uq_expression("-e1 f1", 2) == -(gen_e(2, 1) * gen_f(2, 1))

    def test_scalar_prefixes(self):
        got = parse_uq_expression("2*q^-1 e1", 2)
        assert got == gen_e(2, 1).scale(Laurent.q_power(-1, 2))
        got = parse_uq_expression("v^3 f1", 2)
        assert got == gen_f(2, 1).scale(Laurent.v_power(3))

    def test_acts_like_manual_composition(self):
        p = QPolynomial.generator(2, 1, 2)
        u = parse_uq_expression("e1 f1", 2)
        manual = act(LEFT, gen_e(2, 1), act(LEFT, gen_f(2, 1), p))
        assert act(LEFT, u, p) == manual


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("detq", "--N", "3"),
        ("verify", "--suite", "relations", "--N", "4"),
        ("macdonald", "--lambda", "2,1", "--n", "3"),
        ("macdonald", "--lambda", "2,1", "--n", "3", "--q", "q^2"),
        ("act", "--expr", "-e1 f1", "--side", "right",
         "--input", os.path.join(HERE, "fixtures", "zonal-1-n4.json")),
    ])
    def test_byte_identical_json(self, capsys, argv):
        runs = []
        for _ in range(2):
            rc, out, _ = run(capsys, *argv, "--format", "json", "--no-timing")
            assert rc == 0
            runs.append(out)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", GOLDEN_ARGV)
    def test_golden_bytes(self, capsys, name):
        with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
            golden = fh.read()
        rc, out, _ = run(capsys, *GOLDEN_ARGV[name], "--format", "json", "--no-timing")
        assert rc == 0
        assert out == golden

    def test_timing_field_toggle(self, capsys):
        _, with_t, _ = run(capsys, "detq", "--N", "2", "--format", "json")
        _, without_t, _ = run(capsys, "detq", "--N", "2", "--format", "json",
                              "--no-timing")
        assert "timing_ms" in json.loads(with_t)
        assert "timing_ms" not in json.loads(without_t)
