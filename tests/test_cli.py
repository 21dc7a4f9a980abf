"""Command-line interface: verbs, exit codes, JSON determinism."""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
from functools import cache
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qzonal
from qzonal import symplectic
from qzonal.cli import UsageError, _invariance_checks, main, parse_uq_expression
from qzonal.coeff import L_ONE, Laurent
from qzonal.isotypic import zonal_vector
from qzonal.partitions import count_partitions
from qzonal.qmatrix import QPolynomial, quantum_det, quantum_minor
from qzonal.symplectic import (_row_sorted_polynomial, _word_layout,
                               bi_invariant_generator, invariance_kernel_check,
                               left_invariant_generator, right_invariant_generator,
                               sp_generating_set, z_generator)
from qzonal.uq_action import LEFT, RIGHT, UqElement, act, gen_e, gen_f, q_weight

import oracles
from oracles import det_words, generator, sp_full_set, with_all_ones_component

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
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
    """Make the all-ones column-pair component of the packed Pf(4), the one
    compared with det(4), differ from it in two terms; returns the words as
    a polynomial."""
    words = dict(det_words(4))
    first = min(words)
    words[first] *= 2                    # changed coefficient
    words[_word_layout(4)[2] + 1] = 1    # extra word: v x11 x21 x31 x41
    monkeypatch.setattr("qzonal.symplectic._canonical_components",
                        with_all_ones_component(words))
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

    def test_repeated_pair_components_fail_verification(self, capsys, monkeypatch):
        # 1 in place of q in every minor's second term: the components with
        # a repeated column pair no longer cancel
        monkeypatch.setattr("qzonal.symplectic.L_Q", L_ONE)
        rc, out, _ = run(capsys, "pfaffian", "--N", "4", "--verify",
                         "--format", "json", "--no-timing")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert rc == 2
        assert checks["terms"]["value"] == 30
        assert checks["pfaffian_equals_det"]["residual_terms"] == 25

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

    @pytest.mark.parametrize("option", ["--q", "--t"])
    @pytest.mark.parametrize("value", ["", " "])
    def test_blank_substitution_is_usage_error(self, capsys, option, value):
        rc, out, err = run(capsys, "macdonald", "--lambda", "2", "--n", "2",
                           option, value)
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1

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
        # 6 product rows at (N, deg) = (4, 4); g3 at N = 8 has 2,880 terms
        (("verify", "--suite", "invariance", "--N", "4", "--deg", "4"), "1"),
        (("verify", "--suite", "invariance", "--N", "8", "--deg", "8"), "1000"),
        # 2 * (N + C(N,2) + C(N,3) + 4 C(N,4)) relation checks: 4,556 at N = 12
        (("verify", "--suite", "relations", "--N", "12"), "10"),
        (("verify", "--suite", "relations", "--N", "40"), "10"),
        # the zonal seed det(4)^5: det(4)^3 has 2,008 terms
        (("zonal", "--mu", "5,5", "--N", "4"), "1000"),
        # a substituted power is the length of the dense lists that reduce it
        (("macdonald", "--lambda", "2,1", "--n", "3", "--q", "q^2000"), "1000"),
        (("macdonald", "--lambda", "2,1", "--n", "3", "--t", "t^2000"), "1000"),
        # the bound on the tableau sum's (shape, content prefix) states:
        # 302,311 at the default cap, 1,998 under a cap of 1,000
        (("macdonald", "--lambda", "8,6,4,2", "--n", "8"), None),
        (("macdonald", "--lambda", "5,3,2,1", "--n", "6"), "1000"),
        # the word (x44 x33 x22 x11)^5 straightens to 40,176 terms, and
        # (x44 x33 x22 x11)^3 already to 2,008: refused part-way through
        (("act", "--expr", "e1", "--input", "long-word.json"), "1000")])
    def test_term_count_over_cap_fails_fast(self, capsys, monkeypatch, tmp_path,
                                            argv, cap):
        if cap is not None:
            monkeypatch.setenv("QZ_CAP", cap)
        if argv[0] == "act":
            monkeypatch.chdir(tmp_path)
            word = [[4, 4], [3, 3], [2, 2], [1, 1]] * 5
            (tmp_path / argv[-1]).write_text(json.dumps(
                {"N": 4, "terms": [{"word": word, "coeff": {"0": "1"}}]}))
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and not out
        assert err.count("\n") == 1 and "exceed the cap" in err
        assert time.perf_counter() - start < 5

    def test_product_rows_over_cap_fail_before_any_action(self, capsys, monkeypatch):
        # 8 product rows at (N, deg) = (2, 9); e1 and z(1,2) have 2 terms each,
        # so only the row gate can trip
        acted = []
        monkeypatch.setattr("qzonal.cli.invariance_kernel_check",
                            lambda *a: acted.append(a) or invariance_kernel_check(*a))
        monkeypatch.setenv("QZ_CAP", "5")
        rc, out, err = run(capsys, "verify", "--suite", "invariance", "--N", "2",
                           "--deg", "9")
        assert rc == 2 and not out
        assert err == "verification failure: 8 bi-invariant product rows exceed the cap 5\n"
        assert acted == []

    def test_generators_over_cap_fail_before_any_action(self, capsys, monkeypatch):
        # g1, h1 (8 terms each), g2 and h2 (144) pass at N = 8; g3 has 2,880
        acted = []
        monkeypatch.setattr("qzonal.cli.invariance_kernel_check",
                            lambda *a: acted.append(a) or invariance_kernel_check(*a))
        monkeypatch.setenv("QZ_CAP", "1000")
        rc, out, err = run(capsys, "verify", "--suite", "invariance", "--N", "8",
                           "--deg", "8")
        assert rc == 2 and not out
        assert err == "verification failure: 2880 terms of a left-invariant " \
            "generator exceed the cap 1000\n"
        assert acted == []

    def test_generator_over_cap_forms_no_minor(self, capsys, monkeypatch):
        # 8! terms in the one 8 x 8 minor of the left-invariant generator r = 4
        minors = []
        monkeypatch.setattr(symplectic, "quantum_minor",
                            lambda *a: minors.append(a) or quantum_minor(*a))
        monkeypatch.setenv("QZ_CAP", "20")
        rc, out, err = run(capsys, "zonal", "--mu", "1,1,1,1", "--N", "8")
        assert rc == 2 and not out
        assert err == "verification failure: 40320 terms of a left-invariant " \
            "generator exceed the cap 20\n"
        assert minors == []

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


# the verbs' grammar, with values that are signed, malformed or out of range
_INT = st.one_of(st.integers(0, 9), st.integers(0, 9), st.integers(-3, -1)).map(str) | \
    st.sampled_from(["", "x", "1.5", "+2", "-0"])
_N = st.integers(0, 4).map(lambda m: str(2 * m)) | _INT
_PARTITION = st.one_of(
    st.lists(st.integers(0, 3), max_size=4).map(lambda p: sorted(p, reverse=True)),
    st.lists(st.integers(-1, 4), max_size=4)).map(lambda p: ",".join(map(str, p))) | \
    st.sampled_from(["a", "1,,2", "2;1"])
_QT_VALUE = st.sampled_from(["q", "-t", "2*q*t", "-3*t^2", "q^-1", "0", "", "q t", "x", "-"])
_EXPR = st.lists(st.sampled_from(["e1", "f2", "e5", "q[1,0,-1,0]", "q½[1,-1]", "v^2", "-",
                                  "+", "*", " ", "2", "-e1", "0", "q^-1", "q["]),
                 max_size=5).map("".join)
_INPUT = st.sampled_from(sorted(os.listdir(FIXTURES)) + ["missing.json"]).map(
    lambda name: os.path.join(FIXTURES, name))


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(["detq", "pfaffian", "verify", "zonal", "macdonald", "act"]))
    argv = [verb]
    if verb in ("detq", "pfaffian", "verify", "zonal"):
        argv += ["--N", draw(_N)]
    if verb == "pfaffian" and draw(st.booleans()):
        argv.append("--verify")
    if verb == "verify":
        argv += ["--suite", draw(st.sampled_from(
            ["relations", "invariance", "dimensions", "all", "bogus"])), "--deg", draw(_INT)]
    if verb == "zonal":
        argv += ["--mu", draw(_PARTITION)] + draw(st.sampled_from([[], ["--compare"]]))
    if verb == "macdonald":
        argv += ["--lambda", draw(_PARTITION), "--n", draw(_INT)]
        for option in ("--q", "--t"):
            if draw(st.booleans()):
                argv += [option, draw(_QT_VALUE)]
    if verb == "act":
        argv += ["--expr", draw(_EXPR), "--input", draw(_INPUT),
                 "--side", draw(st.sampled_from(["left", "right", "up"]))]
    return argv + draw(st.sampled_from([[], ["--format", "json"], ["--no-timing"]]))


class TestErrorContract:
    # the cap is small because it bounds the zonal span's rows, not the
    # work per row: under QZ_CAP=300, `zonal --mu 3 --N 8` refuses after
    # ~0.8 s (Python 3.11, 2-core x86 machine); under 50 no draw took 1 s
    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def test_any_command_line_keeps_the_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"QZ_CAP": "50"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


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

    def test_dimension_one_too_large_fails(self, capsys, monkeypatch):
        # a computed dimension above the partition count is no pass either
        monkeypatch.setattr("qzonal.cli.graded_bi_invariant_dimension",
                            lambda m, N: count_partitions(m, N // 2) + 1)
        rc, out, _ = run(capsys, "verify", "--suite", "dimensions", "--N", "4",
                         "--deg", "2", "--format", "json", "--no-timing")
        obj = json.loads(out)
        (check,) = [c for c in obj["checks"] if c["name"] == "bi_invariant_dimension"]
        assert rc == 2 and obj["pass"] is False
        assert check["computed"] == check["expected"] + 1 == 2
        assert check["pass"] is False


class TestInvarianceZChecks:
    """Each z entry of the invariance suite, decided on z(1,2), equals the
    check of its own z(i,j); each full-set entry at N = 4, read from its
    generating entry, equals the check with Noumi's full set."""

    @staticmethod
    def z_entries(N, gens):
        sides = {"z_left": LEFT, "z_right": RIGHT, "z_left_full_set": LEFT}
        # the full family: every operator of the (patched) generating set and
        # of the full set
        ops = {"generating": gens, "full": gens + sp_full_set(N)}
        checks = _invariance_checks(N, 4)
        entries = [c for c in checks if c["name"] in sides]
        assert len(entries) == (N * (N - 1) // 2) * (3 if N == 4 else 2)
        for c in entries:
            side = sides[c["name"]]
            assert c["side"] == side
            z = z_generator(side, *c["indices"], N)
            assert c["pass"] is invariance_kernel_check(z, side, ops[c["operators"]])
        products = dict(oracles.bi_invariant_products(4, N))
        full = [c for c in checks if c["name"] == "bi_invariant_product_full_set"]
        assert len(full) == 2 * len(products) * (N == 4)
        for c in full:
            poly = products[tuple(c["indices"])]
            assert c["pass"] is invariance_kernel_check(poly, c["side"], ops["full"])
        return entries

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_entries_equal_their_own_checks(self, N):
        assert all(c["pass"] for c in self.z_entries(N, sp_generating_set(N)))

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("op,fails", [
        pytest.param(lambda N: gen_e(N, 2), {LEFT, RIGHT}, id="e2"),
        pytest.param(lambda N: gen_e(N, 1) * gen_e(N, 2), {LEFT}, id="e1e2")])
    def test_failing_entries_equal_their_own_checks(self, N, op, fails, monkeypatch):
        # e_2 moves between the column (row) pairs, so it kills no z; e_1 e_2
        # kills the right z's only, so a side mix-up shows
        gens = [op(N)]
        monkeypatch.setattr("qzonal.cli.sp_generating_set", lambda n: gens)
        entries = self.z_entries(N, gens)
        assert {c["side"] for c in entries
                if c["operators"] == "generating" and not c["pass"]} == fails


@cache
def _invariants(N, side):
    """(degree, p) for the invariants p of degree <= 4 on side: the z's, the
    e_r products and the paired-minor sums g_r (left) or h_r (right)."""
    out = [(2, z_generator(side, i, j, N)) for i, j in combinations(range(1, N + 1), 2)]
    out += [(2 * sum(combo), poly) for combo, poly in oracles.bi_invariant_products(4, N)]
    half = left_invariant_generator if side == LEFT else right_invariant_generator
    return out + [(2 * r, half(r, N)) for r in (1, 2)]


class TestProductRows:
    """The lemma of cli._invariance_checks: a product of sp-invariants is
    sp-invariant, so the suite reads each product row from its factors."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([4, 6]), st.sampled_from([LEFT, RIGHT]),
           st.lists(st.integers(0, 99), min_size=1, max_size=3), st.booleans())
    def test_and_of_the_factors_is_the_product_check(self, N, side, picks, x11):
        pool = _invariants(N, side)
        picked = [pool[i % len(pool)] for i in picks]
        while sum(d for d, _ in picked) > 6:
            picked.pop()
        factors = [f for _, f in picked]
        if x11:  # one factor that is not invariant
            factors.insert(picks[0] % (len(factors) + 1), generator(N, 1, 1))
        product = QPolynomial.unit(N)
        for f in factors:
            product = product * f
        assert invariance_kernel_check(product, side) is \
            all(invariance_kernel_check(f, side) for f in factors) is (not x11)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([4, 6]), st.data())
    def test_rows_equal_the_checks_of_their_products(self, N, data):
        # operators that kill no e_r or only some of them make rows fail
        spoilers = [gen_e(N, 2), gen_f(N, 2), gen_e(N, 1) * gen_e(N, 2)]
        ops = data.draw(st.lists(st.sampled_from(sp_generating_set(N) + spoilers),
                                 min_size=1, max_size=3))
        products = dict(oracles.bi_invariant_products(4, N))
        with mock.patch("qzonal.cli.sp_generating_set", lambda n: ops):
            rows = [c for c in _invariance_checks(N, 4)
                    if c["name"] == "bi_invariant_product"]
        assert len(rows) == 2 * len(products)
        for c in rows:
            poly = products[tuple(c["indices"])]
            assert c["pass"] is invariance_kernel_check(poly, c["side"], ops)

    @pytest.mark.parametrize("N,deg", [(2, 9), (4, 12), (6, 8), (6, 10)])
    def test_the_gate_counts_the_rows(self, N, deg):
        # the row gate counts without listing: 2 per partition of 1..deg/2
        # into parts <= N/2
        rows = [c for c in _invariance_checks(N, deg) if c["name"] == "bi_invariant_product"]
        assert len(rows) == 2 * (count_partitions(deg // 2, N // 2, up_to=True) - 1)
        assert len(rows) == 2 * sum(count_partitions(s, N // 2) for s in range(1, deg // 2 + 1))

    def test_the_suite_forms_no_bi_invariant_generator(self, monkeypatch):
        # one g_r and one h_r per r <= 3 decide every e_r row; no minor sum
        # pairs both sides
        bi, sums = [], []
        monkeypatch.setattr("qzonal.cli.bi_invariant_generator",
                            lambda *a: bi.append(a) or bi_invariant_generator(*a))
        paired = symplectic._paired_minor_sum
        monkeypatch.setattr(symplectic, "_paired_minor_sum",
                            lambda *a: sums.append(a[2:4]) or paired(*a))
        assert all(c["pass"] for c in _invariance_checks(8, 6))
        assert bi == []
        assert sorted(sums) == [(False, True)] * 3 + [(True, False)] * 3

    def test_the_suite_forms_no_product(self, monkeypatch):
        calls = []
        mul = QPolynomial.__mul__
        monkeypatch.setattr(QPolynomial, "__mul__",
                            lambda a, b: calls.append(b) or mul(a, b))
        assert all(c["pass"] for c in _invariance_checks(6, 8))
        assert calls == []


class TestZonalVerb:
    def test_zonal_with_comparison(self, capsys):
        rc, out, _ = run(capsys, "zonal", "--mu", "2", "--N", "4", "--compare",
                         "--format", "json", "--no-timing")
        assert rc == 0
        obj = json.loads(out)
        conv = {e["convention"]: e["match"] for e in obj["comparison"]}
        assert conv["(q^2, q^4)"] is True
        assert conv["(q^2, q^-4)"] is False

    def test_failed_restriction_check_is_verification_failure(self, capsys,
                                                             monkeypatch):
        # a restriction missing half of an orbit fails compare_zonal's own check
        zv = zonal_vector((1,), 4)
        del zv.s_restriction[(0, 1)]
        monkeypatch.setattr("qzonal.cli.zonal_vector", lambda mu, N: zv)
        rc, out, err = run(capsys, "zonal", "--mu", "1", "--N", "4", "--compare")
        assert rc == 2 and not out
        assert err == "verification failure: zonal restriction is not symmetric\n"

    def test_no_matching_convention_fails_its_check(self, capsys, monkeypatch):
        # (2) at N = 4 matches (q^2, q^4) and (q^-2, q^-4) only
        monkeypatch.setattr("qzonal.macdonald.DEFAULT_CONVENTIONS", ((2, -4),))
        rc, out, err = run(capsys, "zonal", "--mu", "2", "--N", "4", "--compare",
                           "--format", "json", "--no-timing")
        assert rc == 2 and err == ""
        obj = json.loads(out)
        assert obj["pass"] is False
        assert obj["checks"][-1] == {"name": "convention_match", "matching": [],
                                     "pass": False}
        assert [e["match"] for e in obj["comparison"]] == [False]

    def test_cap_refuses_the_span_before_full_rows(self, capsys, monkeypatch):
        # the slice echelon reaches rank 301 of dim V_(6) = 1716 at N = 8
        monkeypatch.setenv("QZ_CAP", "300")
        rc, out, err = run(capsys, "zonal", "--mu", "3", "--N", "8")
        assert rc == 2 and not out
        assert err == "verification failure: 301 right span rows exceed the cap 300\n"


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

    def test_negated_parameter_value(self, capsys):
        # "-q" and "-t^2" are the factor -1 times q and t^2
        argv = ("macdonald", "--lambda", "2,1", "--n", "3")
        spelled = {"q": "-1*q", "t": "-1*t^2"}
        runs = [run(capsys, *argv, "--q", vals["q"], "--t", vals["t"],
                    "--format", "json", "--no-timing")
                for vals in ({"q": "-q", "t": "-t^2"}, spelled)]
        assert runs[0][0] == runs[1][0] == 0
        # the same bytes once the input echo, which stays as typed, is aligned
        obj = json.loads(runs[0][1])
        assert (obj["inputs"]["q"], obj["inputs"]["t"]) == ("-q", "-t^2")
        obj["inputs"].update(spelled)
        assert json.dumps(obj, indent=2) + "\n" == runs[1][1]

    def test_small_substitution_keeps_its_bytes_under_a_small_cap(self, capsys,
                                                                   monkeypatch):
        monkeypatch.setenv("QZ_CAP", "1000")
        rc, out, _ = run(capsys, "macdonald", "--lambda", "2,1", "--n", "3",
                         "--q", "q^2", "--format", "json", "--no-timing")
        with open(os.path.join(FIXTURES, "macdonald-21-n3-q2.json"),
                  encoding="utf-8") as fh:
            assert rc == 0 and out == fh.read()

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
        src.write_text(json.dumps(generator(2, 1, 2).to_json()))
        rc, out, _ = run(capsys, "act", "--expr", "e1", "--side", "left",
                         "--input", str(src), "--output", str(dst),
                         "--format", "json", "--no-timing")
        assert rc == 0
        assert QPolynomial.from_json(json.loads(dst.read_text())) == \
            generator(2, 1, 1)

    def test_signed_expression_value(self, tmp_path, capsys):
        # a lone -e1 is the value of --expr, not an option
        src = tmp_path / "p.json"
        src.write_text(json.dumps(generator(2, 1, 2).to_json()))
        runs = [run(capsys, "act", *expr, "--input", str(src),
                    "--format", "json", "--no-timing")
                for expr in (("--expr", "-e1"), ("--expr=-e1",))]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert json.loads(runs[0][1])["polynomial"] == \
            (-generator(2, 1, 1)).to_json()

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(generator(2, 1, 2).to_json()))
        rc, out, err = run(capsys, "act", "--expr", "e1", "--input", str(src),
                           "--output", str(tmp_path / "missing" / "out.json"))
        assert rc == 1 and not out
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("expr, message", [
        ("e9", "e_9 needs 1 <= k <= 3"),
        ("q[1,0]", "weight vector length must equal N"),
    ])
    def test_atom_outside_the_input_ambient(self, capsys, expr, message):
        rc, out, err = run(capsys, "act", "--expr", expr, "--input",
                           os.path.join(FIXTURES, "act-input-n4.json"))
        assert rc == 1 and not out
        assert err == f"usage error: bad act input: IndexOutOfRange: {message}\n"

    # each once read as a weight of length 4: (10,0,0,0), (1,2,0,0), (1,0,0,0)
    @pytest.mark.parametrize("weight", [
        "q[1 0,0,0,0]", "q[1,,2,0,0]", "q[1,0,0,0,]", "q[1\t0,0,0,0]"])
    def test_malformed_weight_is_usage_error(self, capsys, weight):
        rc, out, err = run(capsys, "act", "--expr", weight, "--input",
                           os.path.join(FIXTURES, "act-input-n4.json"))
        assert rc == 1 and not out
        assert err == (f"usage error: bad weight {weight!r}: "
                       "coordinates are comma-separated integers\n")


# pieces of operator expressions: atoms, signs, '*', integers, malformed
# atoms and whitespace
_EXPR_PIECES = st.sampled_from([
    "e1", "e3", "f2", "e9", "f0", "e", "q[1,0,-1,0]", "q½[1,-1,0,0]",
    "qh[0,1,0,1]", "q[1,0]", "q[1,,2,0,0]", "q[1 0,0,0]", "q[1,\t0,0,0]",
    "q[-]", "q[", "q", "v^2", "q^-1", "v^", "q^+1", "2", "0", "12", "-", "+",
    "*", "*-", "* -", "* -2", "-2", "+-", " ", "\t", "\n", "x", "½", "]", "^"])


def _outcome(parse, text):
    try:
        return parse(text, 4)
    except Exception as exc:
        return type(exc), str(exc)


class TestExpressionParser:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_EXPR_PIECES, max_size=8).map("".join))
    def test_agrees_with_the_character_parser(self, text):
        """The token loop returns the UqElement of the character-stepping
        parser it replaced, or raises its exception type and message."""
        assert _outcome(parse_uq_expression, text) == \
            _outcome(oracles.parse_uq_expression, text)

    def test_sign_after_star_is_the_integer_sign(self):
        e1 = gen_e(4, 1)
        assert parse_uq_expression("e1 * -2", 4) == e1.scale(-2)
        assert parse_uq_expression("e1-2", 4) == e1 - UqElement.one(4).scale(2)
        for text in ("e1*- 2", "e1*-e1", "e1*+2"):
            with pytest.raises(UsageError, match="unexpected token"):
                parse_uq_expression(text, 4)

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
        p = generator(2, 1, 2)
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

    def test_relation_suite_n8_bytes(self, capsys):
        # sha256 of the report as the full expansion on every pair wrote it
        rc, out, _ = run(capsys, "verify", "--suite", "relations", "--N", "8",
                         "--format", "json", "--no-timing")
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "8a8b2d2b87750d8c0f86907f7c8f09f9fbd7cb3bb4bde6750127c9e542ca7025"

    @pytest.mark.parametrize("argv,digest", [
        # the degree-4 bi-invariant products and the N = 4 full-set checks
        (("verify", "--suite", "all", "--N", "4", "--deg", "4"),
         "3bd7cf626cd73eb98da582746baee7c5f7f4fb074fa082962660bf55f97f9672"),
        # adds the degree-6 products and the kernel-span checks
        (("verify", "--suite", "all", "--N", "4", "--deg", "6"),
         "b8fde846995a384953cec1b5f8e9f6077142ca441357fa4fa1485beb40f78a00"),
        (("verify", "--suite", "invariance", "--N", "6", "--deg", "4"),
         "93ea794217034f7216dd0fdca3539235da0c6c523fc45fd09fb58eeed796b599"),
        # the most pairs one z(1,2) decides
        (("verify", "--suite", "invariance", "--N", "8", "--deg", "2"),
         "9e8fb1fd645c4896eb5d90eac8fcb83c004b3c2e956ab47c77ca3430fb8cf1fd"),
        # one pair, and no partial Pfaffian rows
        (("verify", "--suite", "invariance", "--N", "2", "--deg", "4"),
         "11a07165c8a583571411bc47ebfb70e7e56545460b866b44c1651a605b3e5e9e"),
        # product rows read from their factors where the products are large
        (("verify", "--suite", "invariance", "--N", "6", "--deg", "8"),
         "4716c70962939de2ad95ab97686489170888470c1d7322b4a94d63a6a39bba25"),
        (("verify", "--suite", "invariance", "--N", "8", "--deg", "6"),
         "43ad7a3c2683bde5116ff47ba36ad87e2771d7d9bcf7db9c2a0d39692eaebbcf"),
        (("verify", "--suite", "invariance", "--N", "4", "--deg", "12"),
         "088f4b4cd99fb42ae647614546c19ec2503dade7a2512c6f1fd3e4c4262d159d"),
    ])
    def test_verify_report_bytes(self, capsys, argv, digest):
        rc, out, _ = run(capsys, *argv, "--format", "json", "--no-timing")
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_act_bytes(self, capsys, monkeypatch, side):
        # the report echoes --input as typed, so it is read from its directory
        monkeypatch.chdir(FIXTURES)
        rc, out, _ = run(capsys, "act", "--expr",
                         "e1 f2 - q^-1 f2 e1 + 2*q½[1,-1,0,0] e3", "--side", side,
                         "--input", "act-input-n4.json", "--format", "json",
                         "--no-timing")
        with open(f"act-{side}-n4.json", encoding="utf-8") as fh:
            assert rc == 0 and out == fh.read()

    def test_timing_field_toggle(self, capsys):
        _, with_t, _ = run(capsys, "detq", "--N", "2", "--format", "json")
        _, without_t, _ = run(capsys, "detq", "--N", "2", "--format", "json",
                              "--no-timing")
        assert "timing_ms" in json.loads(with_t)
        assert "timing_ms" not in json.loads(without_t)


class TestBenchTables:
    def test_memo_table_names_are_live(self):
        """bench/layers.py reads the engine's memo tables by name; a rename
        would blank their metrics."""
        act(LEFT, gen_e(4, 1), quantum_det(4))
        layers = runpy.run_path(os.path.join(HERE, "..", "bench", "layers.py"))
        sizes = layers["table_sizes"](qzonal)
        assert set(sizes) == set(layers["TABLES"]) and len(sizes) == 3
        assert sizes["uq_action.atom_table.entries"] > 0

    def test_counted_and_hooked_names_are_live(self):
        """Each per-layer count hangs on an engine name in bench/layers.py's
        CALL_COUNTERS or AFTER; a rename or fold would make the metric absent
        and fail bench/selftest.py."""
        layers = runpy.run_path(os.path.join(HERE, "..", "bench", "layers.py"))
        resolve = layers["_resolve"]
        names = [(module, q) for module, quals in layers["CALL_COUNTERS"].values()
                 for q in quals] + list(layers["AFTER"])
        missing = [f"{module}.{q}" for module, q in names
                   if not callable(resolve(getattr(qzonal, module, None), q))]
        assert missing == []
