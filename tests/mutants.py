"""Mutation check: every mutant below is one textual change to src/qzonal
that a named tier-1 test must kill.

    python3 tests/mutants.py

For each mutant in turn, src/ is copied to a temporary directory, the
mutant is applied to the copy, and pytest runs only the mutant's killing
tests against it (``-o pythonpath=<copy>``).  Each run is a child process
with a wall-clock timeout and an address-space limit, because a mutant can
loop forever or grow memory without bound (a ``_qt_lift`` digit loop that
never ends does both).  Before the mutants, the same tests run once on an
unmutated copy and must pass, so a kill means the mutant, not the copy.

Prints one line per mutant and exits 1 if any mutant survives, 2 if the
unmutated copy fails or a mutant no longer applies.  Standard library only.
pytest does not collect this file; CI runs it as its own job (``mutants``
in .github/workflows/tier1.yml), and a tier-1 test (tests/test_surface.py)
checks that every mutant still applies.  Add the mutant and its test when
a new decision lands in src/.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ADDRESS_SPACE = 2 << 30
# a pytest run's wall-clock limit, past the per-test limit of tests/conftest.py
TIMEOUT_S = 300

# (file under src/qzonal, old text, new text, node ids of the tests that kill it)
MUTANTS = [
    # SubspaceBasis.equals decides "other within self" only
    ("isotypic.py",
     "        if self.rank != other.rank:\n            return False\n        return all(",
     "        return all(",
     ["tests/test_isotypic.py::TestSubspaceBasis::test_one_row_larger_is_not_equal"]),
    # relative_invariant_check without its weight test
    ("symplectic.py",
     "    if p.row_weight() != lam:\n        return False\n",
     "",
     ["tests/test_symplectic.py::TestRelativeInvariants::test_wrong_row_weight_is_refused",
      "tests/test_isotypic.py::TestRightSpan::test_seed_of_a_smaller_weight_is_refused"]),
    # relative_invariant_check skipping the last f_k
    ("symplectic.py",
     "gen_f(N, k), p).is_zero() for k in range(1, N))",
     "gen_f(N, k), p).is_zero() for k in range(1, N - 1))",
     ["tests/test_symplectic.py::TestRelativeInvariants::test_only_the_last_f_fails"]),
    # zonal_vector accepting a right sp-kernel of rank > 1
    ("isotypic.py",
     "    if len(kernel) != 1:\n",
     "    if not kernel:\n",
     ["tests/test_isotypic.py::TestRightSpan::test_kernel_of_rank_two_is_refused"]),
    # the dimensions suite passing when computed >= expected
    ("cli.py",
     '"pass": expected == got})',
     '"pass": expected <= got})',
     ["tests/test_cli.py::TestVerifySuites::test_dimension_one_too_large_fails"]),
    # qt_divexact without its divisibility test: the loop never ends, so the
    # kill comes from the per-test time limit of tests/conftest.py (120 s)
    ("coeff.py",
     "if aq < bq or at < bt or c % blead:",
     "if aq < bq or at < bt:",
     ["tests/test_coeff.py::TestQTGcd::test_inexact_division_is_refused"]),
    # _qt_lift keeping nonnegative digits: a negative coefficient never leaves
    # the digit loop, whose map grows to the address-space limit; the kill is
    # a MemoryError or the time limit
    ("coeff.py",
     "            if d > half:\n",
     "            if d > xi:\n",
     ["tests/test_coeff.py::TestQTGcd::test_symmetric_digits_recover_small_coefficients"]),
    # the invariance suite without its full-set rows at N = 4
    ("cli.py",
     "    if N == 4:\n",
     "    if False:\n",
     ["tests/test_cli.py::TestDeterminism::test_verify_report_bytes"]),
    # the full-set rows at N = 4 passing whatever their generating rows read
    ("cli.py",
     'c["pass"], "full")',
     'True, "full")',
     ["tests/test_cli.py::TestInvarianceZChecks::test_failing_entries_equal_their_own_checks"]),
    # the product rows passing whatever their factors' rows read
    ("cli.py",
     "                   all(e_pass[r, side] for r in combo))\n",
     "                   True)\n",
     ["tests/test_cli.py::TestInvarianceZChecks::test_failing_entries_equal_their_own_checks",
      "tests/test_cli.py::TestProductRows::test_rows_equal_the_checks_of_their_products"]),
    # the partial Pfaffian rows run on the right z(1,2), which right f_2 does
    # not kill at N = 4
    ("cli.py",
     "        pf2 = z[LEFT]\n",
     "        pf2 = z[RIGHT]\n",
     ["tests/test_cli.py::TestDeterminism::test_verify_report_bytes"]),
    # the convention_match check passing when no convention matches
    ("cli.py",
     '"pass": any(e["match"] for e in report["conventions"])})',
     '"pass": True})',
     ["tests/test_cli.py::TestZonalVerb::test_no_matching_convention_fails_its_check"]),
    # Pf = det's block comparison without its size test: an all-ones
    # component holding every word of det(N) and more passes
    ("symplectic.py",
     "            if len(words) == factorial(N) and all(\n",
     "            if all(\n",
     ["tests/test_symplectic.py::TestQuantumPfaffian::"
      "test_streamed_det_mismatch_counts_as_full_tables[extra]"]),
    # the det blocks read with the other sign
    ("symplectic.py",
     "table(free)[inv % 2]",
     "table(free)[1 - inv % 2]",
     ["tests/test_symplectic.py::TestQuantumPfaffian::"
      "test_streamed_det_mismatch_counts_as_full_tables[sign]",
      "tests/test_symplectic.py::TestQuantumPfaffian::test_packed_det_is_quantum_det[4]"]),
    # the det blocks without the inversions between prefix and free columns
    ("symplectic.py",
     "        inv = inside + cross\n",
     "        inv = inside\n",
     ["tests/test_symplectic.py::TestQuantumPfaffian::"
      "test_det_blocks_partition_the_permutation_words[4]",
      "tests/test_symplectic.py::TestQuantumPfaffian::test_equals_quantum_det[4]"]),
    # the mixed s_i without its right-acting word e_c e_b e_a: left solves
    # still pass, but on the right s_i acts as q^-2 f_c on the vectors the
    # diagonal pairs kill, so the right sp-kernel and the zonal line change
    ("symplectic.py",
     " - e(a + 1) * e(a + 2) * e(a)\n",
     "\n",
     ["tests/test_isotypic.py::TestZonalReach::test_zonal_matches_macdonald[mu1-4]",
      "tests/test_symplectic.py::TestImpliedMixedF::"
      "test_mixed_e_is_s_on_the_diagonal_kernels[4-2]"]),
    # the row split without its closing solve: the shortest rows' kernel is
    # returned.  At (N, degree) = (8, 2) it leaves 2 dimensions of a line,
    # and at (4, 4) 4 of a plane
    ("isotypic.py",
     "    return _close(head, [_combine(by_col, row) for row in rows[cut:]])\n",
     "    return head\n",
     ["tests/test_isotypic.py::TestSplitKernelSolve::test_rows_past_the_cut_close_the_kernel[8-2]",
      "tests/test_isotypic.py::TestOperatorKernels::test_bi_invariant_dimensions[2-4]"]),
    # the one pass over the pivots keeping, for each free column, only the
    # last of a pivot row's terms instead of their sum
    ("isotypic.py",
     "                    acc[f] = acc[f] + term if f in acc else term\n",
     "                    acc[f] = term\n",
     ["tests/test_isotypic.py::TestOnePassBackSubstitution::"
      "test_equals_the_per_free_column_walk"]),
    # SymPolynomial + and - over differing denominators without the
    # cross-multiplication: the numerators are added over self's denominator
    ("macdonald.py",
     "        den, a, b = _lcm_cofactors(self.den, other.den)\n",
     "        den, a, b = self.den, QT_ONE, QT_ONE\n",
     ["tests/test_macdonald.py::TestSymPolynomialArithmetic::"
      "test_differing_denominators_meet_at_their_lcm",
      "tests/test_macdonald.py::TestSymPolynomialArithmetic::"
      "test_equality_across_denominators"]),
    # the tableau sum adding its terms' numerators without the factors each
    # lacks of the counters' maximum
    ("macdonald.py",
     "                num = _dict_add(num, _times_factors(p, den - d))\n",
     "                num = _dict_add(num, p)\n",
     ["tests/test_macdonald.py::TestMacdonaldPolynomials::"
      "test_factored_sum_equals_the_fraction_sum",
      "tests/test_macdonald.py::TestMacdonaldPolynomials::test_tableau_sum_equals_eigen_solve"]),
    # the alternant plan in ascending lex order: a d_sort(beta) is read
    # before it is solved, so it reads as zero
    ("macdonald.py",
     "    for mu in partitions(d, n):\n",
     "    for mu in sorted(partitions(d, n)):\n",
     ["tests/test_macdonald.py::TestAlternantPlan::test_plan_equals_the_per_call_solve"]),
    # a fraction over a unit denominator reduced by a gcd it does not need
    ("coeff.py",
     "        if not _reduced and not den.is_one():\n",
     "        if not _reduced:\n",
     ["tests/test_macdonald.py::TestNumeratorSpace::test_integral_input_takes_no_gcd"]),
    # the right side's e_r rows decided with g_r instead of h_r, which the
    # right operators do not kill at N >= 4
    ("cli.py",
     "((LEFT, left_invariant_generator), (RIGHT, right_invariant_generator))",
     "((LEFT, left_invariant_generator), (RIGHT, left_invariant_generator))",
     ["tests/test_cli.py::TestDeterminism::test_verify_report_bytes"]),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tests(src, node_ids):
    """pytest on node_ids with src as the package path: 'passed', 'timed
    out' or how it failed (a failed test, or a crash such as a MemoryError
    inside pytest).  A usage error or an empty collection means the list
    names a test that is gone, and raises."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", "pythonpath=" + src] + node_ids
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timed out"
    if proc.returncode in (4, 5):
        raise RuntimeError("pytest exited %d:\n%s%s"
                           % (proc.returncode, proc.stdout, proc.stderr))
    return "passed" if proc.returncode == 0 else "exit %d" % proc.returncode


def copy_src(tmp):
    dst = os.path.join(tmp, "src")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), dst,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dst


def apply_mutant(src, fname, old, new):
    path = os.path.join(src, "qzonal", fname)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise ValueError(f"{fname}: the mutant's old text occurs {text.count(old)} times")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def main():
    all_ids = sorted({i for *_, ids in MUTANTS for i in ids})
    survived = 0
    with tempfile.TemporaryDirectory(prefix="qzonal-mutants-") as tmp:
        clean = run_tests(copy_src(tmp), all_ids)
        print(f"unmutated copy: {len(all_ids)} tests {clean}", flush=True)
        if clean != "passed":
            return 2
        for n, (fname, old, new, ids) in enumerate(MUTANTS, 1):
            src = copy_src(tmp)
            try:
                apply_mutant(src, fname, old, new)
            except ValueError as exc:
                print(f"mutant {n}: {exc}")
                return 2
            outcome = run_tests(src, ids)
            verdict = "survived" if outcome == "passed" else "killed (%s)" % outcome
            survived += outcome == "passed"
            print(f"mutant {n} ({fname}: {old.strip().splitlines()[0]!r}): {verdict}",
                  flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
