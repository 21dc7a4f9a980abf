"""The engine's surface: every function of src/qzonal that no verb enters is
pinned here with its reason.

A subprocess runs a fixed list of small ``qz`` commands -- every verb in both
formats, ``act --output`` and one bad argv -- with ``sys.setprofile`` set
before ``qzonal.cli`` is imported, and records each function of the package
it enters.  A helper that only tests call fails this test until it moves to
tests/oracles.py, gains a caller in the engine, or is pinned below.

Every mutant of tests/mutants.py must still apply to src/qzonal and name
killing tests that exist, so that script cannot go stale unseen.
"""

import ast
import json
import os
import subprocess
import sys

import qzonal
from mutants import MUTANTS, ROOT

PACKAGE = os.path.dirname(os.path.abspath(qzonal.__file__))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# qualified name -> why it stays in src/qzonal although no verb enters it
PINNED = {
    # reached by bench/worker.py's Macdonald op (criterion 7 at n = 3); P_lambda
    # comes from the tableau sum, so no verb applies D_r or forms m_lambda
    "coeff.QTRational.invert_parameters": "bench/worker.py: parameter inversion check",
    "coeff._qt_flip": "bench/worker.py: invert_parameters clears q and t with it",
    "coeff.QTRational.from_poly": "bench/worker.py: the value q and the D_r eigenvalues",
    "coeff.IntPoly.__hash__": "bench/worker.py: D_r keys the coefficient denominators",
    "coeff.add_terms": "bench/worker.py: SymPolynomial - and from_m_basis add numerators",
    "coeff.QTPoly.__mul__": "bench/worker.py: SymPolynomial numerators times lcm cofactors "
                            "and eigenvalues; the tableau sum multiplies on plain maps",
    "macdonald.SymPolynomial.__init__": "bench/worker.py: numerators over one denominator",
    "macdonald.SymPolynomial.monomial_symmetric": "bench/worker.py: D_1 triangularity check",
    "macdonald.SymPolynomial.m_basis": "bench/worker.py: D_1 triangularity check reads "
                                       "the reduced coefficients",
    "macdonald.macdonald_d1": "bench/worker.py: D_1 triangularity and eigenvalue checks",
    "macdonald.macdonald_dr": "bench/worker.py: D_r eigenvalue checks",
    "macdonald.macdonald_dr.<locals>.term": "bench/worker.py: D_r reads N at mu + delta with it",
    "macdonald._over_common_denominator": "bench/worker.py: from_m_basis puts P_lambda over "
                                          "one denominator with it",
    "macdonald._lcm_cofactors": "bench/worker.py: from_m_basis and SymPolynomial - take "
                                "lcms with it",
    "macdonald._solve_alternant": "bench/worker.py: D_r and Schur solve for their m-basis with it",
    "macdonald._alternant_plan": "bench/worker.py: D_r and Schur read their (n, degree) "
                                 "alternant rows from it",
    "macdonald.macdonald_eigenvalue": "bench/worker.py: D_1 eigenvalue check",
    "macdonald.elementary_symmetric_eigenvalue": "bench/worker.py: D_r eigenvalue checks",
    "macdonald.SymPolynomial.from_m_basis": "bench/worker.py: P_lambda as a polynomial",
    "macdonald.SymPolynomial.__sub__": "bench/worker.py: D_r f - e_r f",
    "macdonald.SymPolynomial._plus": "bench/worker.py: D_r f - e_r f adds numerators with it",
    "macdonald.SymPolynomial.scale": "bench/worker.py: eigenvalue times f, numerator and "
                                     "denominator",
    "macdonald.SymPolynomial.is_zero": "bench/worker.py: eigenvalue residual test on the "
                                       "numerators",
    "macdonald.schur_polynomial": "bench/worker.py: Schur specialization t = q",
    "macdonald.schur_polynomial.<locals>.term": "bench/worker.py: Schur reads a_(lam+delta) "
                                                "at mu + delta with it",
    "partitions.dominance_lt": "bench/worker.py: D_1 triangularity check",
    # read by bench/layers.py
    "isotypic.GradedComponent.dim": "bench/layers.py: isotypic.unknowns adds component.dim",
    "qmatrix.count_normal_monomials": "bench/layers.py: GradedComponent.dim counts with it",
    # protocol methods: pytest prints reprs in failing asserts; tests compare,
    # hash and negate engine values
    "coeff.Combination.__hash__": "protocol: equal combinations hash equal",
    "coeff.ReducedFraction.__hash__": "protocol: equal fractions hash equal",
    "coeff.ReducedFraction.__sub__": "protocol: tests subtract fractions",
    "macdonald.SymPolynomial.__eq__": "protocol: equality of symmetric polynomials, "
                                      "by a zero difference",
    "macdonald.SymPolynomial.__add__": "protocol: tests add symmetric polynomials",
    "macdonald.SymPolynomial.__repr__": "protocol: printed, reduced, in failing asserts",
    "qmatrix.QPolynomial.__repr__": "protocol: printed in failing asserts",
    "uq_action.UqElement.__repr__": "protocol: printed in failing asserts",
    "uq_action._atom_str": "protocol: one atom of the UqElement repr",
}

COMMANDS = [
    ["detq", "--N", "3"],
    ["pfaffian", "--N", "4"],
    ["pfaffian", "--N", "4", "--verify"],
    ["verify", "--suite", "all", "--N", "4", "--deg", "4"],
    ["zonal", "--mu", "1", "--N", "4", "--compare"],
    ["macdonald", "--lambda", "2,1", "--n", "3", "--q", "-q^2"],
    ["macdonald", "--lambda", "2", "--n", "2", "--t", "q"],
    ["act", "--expr", "e1 - 2*q^-1 f2 + qh[1,-1,0,0]", "--side", "right",
     "--input", os.path.join(FIXTURES, "act-input-n4.json"), "--output", "{out}"],
]
BAD_ARGV = ["verify", "--suite", "bogus", "--N", "4"]

CHILD = r"""
import contextlib, io, json, os, sys
package, commands, bad = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno))

sys.setprofile(profile)
import qzonal.cli
codes = []
for argv in [a + f for a in commands for f in (["--format", "json", "--no-timing"], [])] + [bad]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(qzonal.cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def defined_functions() -> dict:
    """(file name, first line of the code object) -> qualified name of every
    function defined in the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    # a decorated function's code starts at its first decorator
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(name, line)] = name[:-3] + "." + qual
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)
        walk(tree, "")
    return out


def test_never_entered_functions_are_pinned(tmp_path):
    commands = [[a.format(out=tmp_path / "out.json") for a in argv] for argv in COMMANDS]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    env.pop("QZ_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, PACKAGE, json.dumps(commands), json.dumps(BAD_ARGV)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * (2 * len(COMMANDS)) + [1]
    assert (tmp_path / "out.json").exists()
    entered = {tuple(key) for key in result["entered"]}
    never = {qual for key, qual in defined_functions().items() if key not in entered}
    assert sorted(never - set(PINNED)) == [], "entered by no verb and not pinned"
    assert sorted(set(PINNED) - never) == [], "pinned but entered, renamed or gone"


def test_every_mutant_applies_and_names_live_tests():
    # tests/mutants.py exits 2 on a mutant whose old text is not there once
    for fname, old, _, node_ids in MUTANTS:
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            assert fh.read().count(old) == 1, (fname, old)
        for node_id in node_ids:
            path, *names = node_id.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                scope = ast.parse(fh.read())
            for name in names:
                name = name.partition("[")[0]  # a parametrized id names its function
                scope = next((n for n in scope.body if getattr(n, "name", None) == name),
                             None)
                assert scope is not None, f"{node_id} names no test"
