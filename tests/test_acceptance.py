"""Acceptance suite.

One test per acceptance criterion; every check is exact (zero tolerance).
Each criterion prints a single PASS/FAIL line (visible with `pytest -s` or
in the captured output of failures).
"""

import contextlib
import json
import random
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

import pytest

from qzonal.coeff import Laurent
from qzonal.isotypic import (SubspaceBasis, graded_bi_invariant_dimension,
                             two_sided_sp_kernel, zonal_vector)
from qzonal.macdonald import (SymPolynomial, compare_zonal,
                              elementary_symmetric_eigenvalue,
                              macdonald_d1, macdonald_dr, macdonald_eigenvalue,
                              macdonald_polynomial, macdonald_specialize,
                              schur_polynomial)
from qzonal.coeff import QTPoly, QTRational
from qzonal.partitions import (count_partitions, dominance_lt, double_partition,
                               partitions)
from qzonal.qmatrix import QPolynomial, count_normal_monomials, normal_form, quantum_det
from qzonal.symplectic import (bi_invariant_generator, invariance_kernel_check,
                               left_invariant_generator, partial_pfaffian,
                               quantum_pfaffian, sp_generating_set,
                               verify_z_relations, z_generator)
from qzonal.uq_action import LEFT, RIGHT, act, gen_e, gen_f

from oracles import (c1_doubled_display, c1_printed_display,
                     central_element_scalar, central_index_sum,
                     doubled_weight_sum, enumerate_normal_monomials, generator,
                     inversions, matching_length, matchings, q_factorial, q_int,
                     sp_full_set, specialize)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {description}", flush=True)
        raise
    print(f"[criterion {num}] PASS: {description}", flush=True)


# ---------------------------------------------------------------------------
# 1. quantum-matrix kernel
# ---------------------------------------------------------------------------

def test_criterion_1_quantum_matrix_kernel():
    with criterion(1, "associativity, bi-weight additivity, PBW counts, "
                      "central determinant (N=2,3)"):
        rng = random.Random(101)
        for N in (2, 3):
            for _ in range(25):
                polys = []
                for _ in range(3):
                    word = [(rng.randint(1, N), rng.randint(1, N))
                            for _ in range(rng.randint(1, 2))]
                    polys.append(normal_form(N, word))
                a, b, c = polys
                assert (a * b) * c == a * (b * c)
                ra, ca = a.row_weight(), a.column_weight()
                rb, cb = b.row_weight(), b.column_weight()
                rr, cc = (a * b).row_weight(), (a * b).column_weight()
                assert rr == tuple(u + v for u, v in zip(ra, rb))
                assert cc == tuple(u + v for u, v in zip(ca, cb))
            for d in range(5):
                monos = list(enumerate_normal_monomials(N, d))
                assert len(monos) == count_normal_monomials(N, d) == \
                    comb(N * N + d - 1, d)
                normal = set(monos)
                for _ in range(60):
                    word = [(rng.randint(1, N), rng.randint(1, N))
                            for _ in range(d)]
                    assert set(normal_form(N, word).terms) <= normal
            d = quantum_det(N)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    g = generator(N, i, j)
                    assert d * g == g * d


# ---------------------------------------------------------------------------
# 2. antisymmetric-algebra relation suite
# ---------------------------------------------------------------------------

def test_criterion_2_z_relation_suite():
    with criterion(2, "z-generator relation suite reduces to zero "
                      "(both sides, N=4 and N=6)"):
        for N in (4, 6):
            for side in ("L", "R"):
                report = verify_z_relations(side, N)
                assert report, (side, N)
                bad = [r for r in report if not r["pass"]]
                assert not bad, bad


# ---------------------------------------------------------------------------
# 3. Pfaffian identity
# ---------------------------------------------------------------------------

def test_criterion_3_pfaffian_identity():
    with criterion(3, "quantum Pfaffian equals quantum determinant "
                      "(N=2,4,6) and has the classical sign pattern"):
        for N in (2, 4, 6):
            assert quantum_pfaffian(N) == quantum_det(N)
        # sign pattern at q = 1
        at_one = {pairs: specialize(Laurent.v_power(2 * matching_length(pairs),
                                                    -1 if matching_length(pairs) % 2 else 1),
                                    1)
                  for pairs in matchings(range(1, 5))}
        assert at_one == {((1, 2), (3, 4)): 1,
                          ((1, 3), (2, 4)): -1,
                          ((1, 4), (2, 3)): 1}
        # classical oracle: Pf(A)^2 = det(A) on random integer data
        rng = random.Random(303)
        for _ in range(10):
            A = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    A[i][j] = rng.randint(-9, 9)
                    A[j][i] = -A[i][j]
            pf = sum((-1 if matching_length(p) % 2 else 1)
                     * A[p[0][0] - 1][p[0][1] - 1] * A[p[1][0] - 1][p[1][1] - 1]
                     for p in matchings(range(1, 5)))
            det = sum((-1 if inversions(s) % 2 else 1)
                      * A[0][s[0]] * A[1][s[1]] * A[2][s[2]] * A[3][s[3]]
                      for s in permutations(range(4)))
            assert pf * pf == det


@pytest.mark.stretch
def test_criterion_3_pfaffian_identity_stretch():
    with criterion(3, "stretch: quantum Pfaffian equals quantum determinant "
                      "at N=8 (105 matchings vs 40320 terms)"):
        assert quantum_pfaffian(8) == quantum_det(8)


# ---------------------------------------------------------------------------
# 4. invariance
# ---------------------------------------------------------------------------

def _degree_capped_products(N, cap):
    m = N // 2
    out = []
    for k in range(1, cap // 2 + 1):
        for combo in combinations_with_replacement(range(1, m + 1), k):
            if 2 * sum(combo) <= cap:
                out.append(combo)
    return sorted(out, key=lambda c: (2 * sum(c), c))


def test_criterion_4_invariance():
    with criterion(4, "z, paired-minor and product invariance under the sp "
                      "operators (N=4,6 up to degree 6; full set at N=4)"):
        for N in (4, 6):
            gens = sp_generating_set(N)
            for i, j in combinations(range(1, N + 1), 2):
                assert invariance_kernel_check(z_generator("L", i, j, N), LEFT, gens)
                assert invariance_kernel_check(z_generator("R", i, j, N), RIGHT, gens)
            for r in range(1, N // 2 + 1):
                assert invariance_kernel_check(
                    left_invariant_generator(r, N), LEFT, gens)
            egen = {r: bi_invariant_generator(r, N) for r in range(1, N // 2 + 1)}
            for combo in _degree_capped_products(N, 6):
                poly = QPolynomial.unit(N)
                for r in combo:
                    poly = poly * egen[r]
                assert invariance_kernel_check(poly, LEFT, gens), combo
                assert invariance_kernel_check(poly, RIGHT, gens), combo
        # the full operator family at N=4
        full = sp_full_set(4)
        for i, j in combinations(range(1, 5), 2):
            assert invariance_kernel_check(z_generator("L", i, j, 4), LEFT, full)
            assert invariance_kernel_check(z_generator("R", i, j, 4), RIGHT, full)
        for r in (1, 2):
            assert invariance_kernel_check(left_invariant_generator(r, 4), LEFT, full)
        egen = {r: bi_invariant_generator(r, 4) for r in (1, 2)}
        for combo in _degree_capped_products(4, 6):
            poly = QPolynomial.unit(4)
            for r in combo:
                poly = poly * egen[r]
            assert invariance_kernel_check(poly, LEFT, full), combo
            assert invariance_kernel_check(poly, RIGHT, full), combo
        # partial Pfaffian on the first two indices at N=4
        pf = partial_pfaffian(2, 4)
        for k in (1, 2, 3):
            assert act(RIGHT, gen_f(4, k), pf).is_zero()
        assert act(RIGHT, gen_e(4, 1), pf).is_zero()


# ---------------------------------------------------------------------------
# 5. decomposition dimensions
# ---------------------------------------------------------------------------

def test_criterion_5_bi_invariant_dimensions():
    with criterion(5, "bi-invariant dimensions match the partition count "
                      "(N=4: m=1,2,3; N=6: m=1,2) with explicit spans"):
        for N, ms in ((4, (1, 2, 3)), (6, (1, 2))):
            for m in ms:
                expected = count_partitions(m, N // 2)
                assert graded_bi_invariant_dimension(m, N) == expected, (N, m)
        kern = two_sided_sp_kernel(4, 2)
        span = SubspaceBasis()
        span.insert(bi_invariant_generator(1, 4).terms)
        assert kern.equals(span)
        kern = two_sided_sp_kernel(4, 4)
        span = SubspaceBasis()
        e1 = bi_invariant_generator(1, 4)
        span.insert((e1 * e1).terms)
        span.insert(bi_invariant_generator(2, 4).terms)
        assert kern.equals(span)


# ---------------------------------------------------------------------------
# 6. zonal extraction
# ---------------------------------------------------------------------------

def test_criterion_6_zonal_extraction():
    with criterion(6, "zonal slices are one-dimensional with s-symmetric "
                      "torus restrictions (N=4; mu = 1, 11, 2, 21)"):
        for mu in [(1,), (1, 1), (2,), (2, 1)]:
            zv = zonal_vector(mu, 4)       # raises if not one-dimensional
            rest = zv.s_restriction
            assert rest, mu
            flipped = {(b, a): c for (a, b), c in rest.items()}
            assert flipped == rest, mu
            key = tuple(mu) + (0,) * (2 - len(mu))
            assert key in rest


# ---------------------------------------------------------------------------
# 7. Macdonald suite
# ---------------------------------------------------------------------------

def test_criterion_7_macdonald_suite():
    with criterion(7, "difference-operator triangularity, eigenvalues, Schur "
                      "specialization and parameter inversion"):
        Q = QTRational.from_poly(QTPoly.gen_q())
        for n in (2, 3):
            for d in range(1, 5):
                for mu in partitions(d, n):
                    img = macdonald_d1(
                        SymPolynomial.monomial_symmetric(mu, n)).m_basis()
                    for nu in img:
                        assert nu == mu or dominance_lt(nu, mu)
                    P = macdonald_polynomial(mu, n)
                    f = SymPolynomial.from_m_basis(P, n)
                    ev = macdonald_eigenvalue(mu, n)
                    assert (macdonald_d1(f) - f.scale(ev)).is_zero()
                    for r in range(n + 1):
                        evr = elementary_symmetric_eigenvalue(mu, n, r)
                        assert (macdonald_dr(f, r) - f.scale(evr)).is_zero()
                    assert macdonald_specialize(P, Q, Q) == \
                        schur_polynomial(mu, n)
                    assert {k: v.invert_parameters() for k, v in P.items()} == P


# ---------------------------------------------------------------------------
# 8. the decisive parameter-convention comparison
# ---------------------------------------------------------------------------

def test_criterion_8_convention_report():
    with criterion(8, "zonal restrictions identified against the Macdonald "
                      "conventions (report below)"):
        for mu in [(2,), (2, 1)]:
            report = compare_zonal(zonal_vector(mu, 4))
            print(json.dumps(report, indent=1), flush=True)
            matches = [e for e in report["conventions"] if e["match"]]
            assert matches, report
            assert all(e["constant"] == "1" for e in matches)
        # the discriminating case: exactly the (q^2, q^4)-type conventions
        report = compare_zonal(zonal_vector((2,), 4))
        got = {e["convention"]: e["match"] for e in report["conventions"]}
        assert got["(q^2, q^4)"] and got["(q^-2, q^-4)"] and \
            not got["(q^2, q^-4)"]


# ---------------------------------------------------------------------------
# 9. central-element scalar checks
# ---------------------------------------------------------------------------

def test_criterion_9a_permutation_identities():
    with criterion("9a", "coset length additivity and the inversion "
                         "generating function (n <= 5)"):
        n, k = 4, 2
        taus = [w for w in permutations(range(n))
                if list(w[:k]) == sorted(w[:k]) and list(w[k:]) == sorted(w[k:])]
        assert len(taus) == comb(n, k)
        for tau in taus:
            for s1 in permutations(range(k)):
                for s2 in permutations(range(k, n)):
                    w = tuple(tau[s1[i]] if i < k else tau[s2[i - k]]
                              for i in range(n))
                    assert inversions(w) == \
                        inversions(tau) + inversions(s1) + inversions(s2)
        for n in range(1, 6):
            total = Laurent()
            for sigma in permutations(range(n)):
                total = total + Laurent.q_power(2 * inversions(sigma))
            assert total == Laurent.q_power(comb(n, 2)) * q_factorial(n)


def test_criterion_9b_doubled_display_exactness():
    # The closed-form central-element scalar evaluated on a doubled weight is
    # asserted to reproduce the doubled-weight display verbatim.  The display
    # as printed differs by the lambda-independent factor q^(2n-1) [2] / [2n-1]
    # (it carries the k = 2 prefactor in place of the k = 1 one); the
    # companion test below pins that factor on c1_printed_display, while
    # c1_doubled_display is the corrected form checked here.
    with criterion("9b", "closed-form scalar reproduces the doubled-weight "
                         "display verbatim (n' <= 3)"):
        for nprime in (1, 2, 3):
            for mu in [(0,) * nprime, (1,) + (0,) * (nprime - 1), (2, 1)[:nprime]]:
                lam = double_partition(mu)
                got = central_element_scalar(1, lam, 2 * nprime)
                want = c1_doubled_display(mu, nprime)
                assert got == want, (
                    f"n'={nprime}, mu={mu}: scalar and display differ by the "
                    f"lambda-independent factor q^(2n-1)[2]/[2n-1]")


def test_criterion_9b_doubled_display_discrepancy_is_constant():
    with criterion("9b'", "the display mismatch is exactly the "
                          "lambda-independent factor q^(2n-1)[2]/[2n-1]"):
        for nprime in (1, 2, 3):
            n2 = 2 * nprime
            for mu in [(0,) * nprime, (1,) + (0,) * (nprime - 1), (2, 1)[:nprime]]:
                lam = double_partition(mu)
                lhs = central_element_scalar(1, lam, n2) * \
                    Laurent.q_power(n2 - 1) * q_int(2)
                rhs = c1_printed_display(mu, nprime) * q_int(n2 - 1)
                assert lhs == rhs


def test_criterion_9c_ratio_independence():
    with criterion("9c", "difference-operator comparison ratios are "
                         "independent of the weight (k=1,2 at n'=2)"):
        nprime = 2
        test_weights = [(), (1,), (2,), (1, 1), (3,), (2, 1)]
        # the doubled-index sums carry the entire weight dependence beyond
        # the global q^(4|mu|) prefactor
        for k in (1, 2):
            ratios = set()
            for mu in test_weights:
                lam = double_partition(mu)
                scalar = central_element_scalar(2 * k, lam, 2 * nprime)
                s = central_index_sum(2 * k, lam, 2 * nprime)
                pref = Laurent.q_power(4 * sum(mu))
                ratio = scalar.divexact(pref * s)
                ratios.add(frozenset(ratio.t.items()))
            assert len(ratios) == 1, f"k={k}: ratio varies across weights"
        # strong form for the first central element: the scalar is a constant
        # multiple of q^(4|mu|) times e_1 of the halved eigenvalue alphabet
        ratios = set()
        for mu in test_weights:
            lam = double_partition(mu)
            scalar = central_element_scalar(1, lam, 2 * nprime)
            pref = Laurent.q_power(4 * sum(mu)) * doubled_weight_sum(mu, nprime)
            ratios.add(frozenset(scalar.divexact(pref).t.items()))
        assert len(ratios) == 1
