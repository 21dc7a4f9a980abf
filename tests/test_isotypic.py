"""Graded components, exact kernels, right spans, zonal extraction."""

import json
import os
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qzonal.coeff import Laurent, RationalScalar
from qzonal import isotypic
from qzonal.isotypic import (ComponentTooLarge, GradedComponent,
                             NotRelativeInvariant, SubspaceBasis,
                             graded_bi_invariant_dimension, kernel_on,
                             operator_kernel, right_span, two_sided_sp_kernel,
                             weight_zero_monomials, zonal_vector)
from qzonal.macdonald import compare_zonal
from qzonal.partitions import count_partitions, double_partition
from qzonal.qmatrix import (QPolynomial, count_normal_monomials,
                            enumerate_normal_monomials, quantum_det,
                            quantum_minor)
from qzonal.symplectic import (bi_invariant_generator, invariance_kernel_check,
                               left_invariant_product, restrict_H,
                               sp_generating_set, torus_to_s, z_generator)
from qzonal.uq_action import LEFT, RIGHT, gen_e


def weyl_dimension(lam, n):
    """Dimension of the irreducible with highest weight lam (product formula)."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


class TestGradedComponent:
    def test_dimensions(self):
        for N, d in ((2, 3), (3, 2), (4, 2)):
            comp = GradedComponent(N, d)
            assert comp.dim == count_normal_monomials(N, d)

    def test_domain(self):
        for N, d in ((0, 2), (-2, 2), (2, -1)):
            with pytest.raises(ValueError):
                GradedComponent(N, d)


def _weight(mono, N, by_row):
    w = [0] * N
    for g in mono:
        w[g // N if by_row else g % N] += 1
    return w


class TestWeightZeroMonomials:
    @pytest.mark.parametrize("N,d,row_ks,col_ks", [
        (1, 3, (), ()), (2, 4, (), ()), (3, 0, (1,), ()), (3, 3, (1,), (2,)),
        (4, 3, (1, 3), (1, 3)), (4, 4, (1, 2), ())])
    def test_matches_filtered_enumeration(self, N, d, row_ks, col_ks):
        want = [m for m in enumerate_normal_monomials(N, d)
                if all(_weight(m, N, True)[k - 1] == _weight(m, N, True)[k]
                       for k in row_ks)
                and all(_weight(m, N, False)[k - 1] == _weight(m, N, False)[k]
                        for k in col_ks)]
        got = list(weight_zero_monomials(N, d, row_ks, col_ks))
        assert sorted(got) == want
        assert len(set(got)) == len(got)

    @pytest.mark.parametrize("N,m,count", [
        (4, 3, 328), (6, 2, 351), (4, 4, 1450), (8, 2, 1200)])
    def test_sp_unknown_counts(self, N, m, count):
        ks = tuple(range(1, N, 2))
        assert sum(1 for _ in weight_zero_monomials(N, 2 * m, ks, ks)) == count


class TestSubspaceBasis:
    def test_echelon_canonicality(self):
        d = quantum_det(2)
        g = QPolynomial.generator(2, 1, 2) * QPolynomial.generator(2, 2, 1)
        a = SubspaceBasis()
        a.insert(d.terms)
        a.insert(g.terms)
        b = SubspaceBasis()
        b.insert(g.terms)
        b.insert((d + g.scale(Laurent.q_power(3))).terms)
        assert a.equals(b)
        assert a.canonical_rows() == b.canonical_rows()

    def test_dependent_insert_returns_none(self):
        b = SubspaceBasis()
        v = QPolynomial.generator(2, 1, 1).terms
        assert b.insert(v) is not None
        assert b.insert(QPolynomial.generator(2, 1, 1).scale(Laurent.q_power(2)).terms) is None
        assert b.rank == 1


class TestOperatorKernels:
    def test_single_generator_kernel(self):
        comp = GradedComponent(2, 1)
        k = operator_kernel([(LEFT, gen_e(2, 1))], comp)
        assert k.rank == 2
        span = {m for row in k.rows for m in row}
        # left e_1 kills exactly the first-column generators
        assert span == {(0,), (2,)}

    def test_left_sp_kernel_contains_z(self):
        comp = GradedComponent(4, 2)
        ops = [(LEFT, g) for g in sp_generating_set(4)]
        k = operator_kernel(ops, comp)
        assert k.rank == 6
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert k.contains(z_generator("L", i, j, 4).terms)

    @pytest.mark.parametrize("m,N", [(1, 4), (2, 4), (1, 6), (4, 4), (2, 8)])
    def test_bi_invariant_dimensions(self, m, N):
        assert graded_bi_invariant_dimension(m, N) == count_partitions(m, N // 2)

    @pytest.mark.parametrize("m,N", [(1, 4), (2, 4), (1, 6)])
    def test_pruned_kernel_equals_full(self, m, N):
        comp = GradedComponent(N, 2 * m)
        ops = sp_generating_set(N)
        pairs = [(LEFT, g) for g in ops] + [(RIGHT, g) for g in ops]
        monos = enumerate_normal_monomials(N, 2 * m)
        full = kernel_on(pairs, N, [{mono: {0: 1}} for mono in monos])
        pruned = operator_kernel(pairs, comp)
        assert pruned.unknowns < full.unknowns == comp.dim
        assert pruned.canonical_rows() == full.canonical_rows()

    def test_kernel_spans(self):
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

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("QZ_CAP", "10")
        with pytest.raises(ComponentTooLarge):
            operator_kernel([(LEFT, gen_e(4, 1))], GradedComponent(4, 2))

    def test_cached_kernel_respects_cap(self, monkeypatch):
        two_sided_sp_kernel(4, 4)
        monkeypatch.setenv("QZ_CAP", "10")
        with pytest.raises(ComponentTooLarge):
            two_sided_sp_kernel(4, 4)


class TestZonalVectors:
    def test_empty_partition(self):
        zv = zonal_vector((), 4)
        assert zv.vector == QPolynomial.unit(4)

    def test_line_through_generator(self):
        zv = zonal_vector((1,), 4)
        e1 = bi_invariant_generator(1, 4)
        b = SubspaceBasis()
        b.insert(e1.terms)
        assert b.contains(zv.vector.terms)
        assert zv.s_restriction == {(1, 0): {0: 1}, (0, 1): {0: 1}}

    def test_doubled_column_is_determinant(self):
        zv = zonal_vector((1, 1), 4)
        b = SubspaceBasis()
        b.insert(quantum_det(4).terms)
        assert b.contains(zv.vector.terms)
        assert zv.s_restriction == {(1, 1): {0: 1}}

    def test_row_two_coefficient(self):
        zv = zonal_vector((2,), 4)
        coeffs = zv.normalized_s_coefficients()
        assert coeffs[(2, 0)] == RationalScalar.one()
        assert coeffs[(0, 2)] == RationalScalar.one()
        # [2]^2/[3] written over v
        num = Laurent({8: 1, 4: 2, 0: 1})
        den = Laurent({8: 1, 4: 1, 0: 1})
        assert coeffs[(1, 1)] == RationalScalar(num, den)

    def test_invariance_and_membership(self):
        for mu in [(1,), (2,), (1, 1)]:
            zv = zonal_vector(mu, 4)
            assert invariance_kernel_check(zv.vector, LEFT)
            assert invariance_kernel_check(zv.vector, RIGHT)
            span = right_span(left_invariant_product(double_partition(mu), 4))
            assert span.contains(zv.vector.terms)

    def test_restriction_is_symmetric(self):
        for mu in [(1,), (2,), (1, 1)]:
            zv = zonal_vector(mu, 4)
            rest = zv.s_restriction
            flipped = {(b, a): c for (a, b), c in rest.items()}
            assert flipped == rest

    def test_restriction_collapses_to_s(self):
        zv = zonal_vector((2,), 4)
        assert torus_to_s(restrict_H(zv.vector), 4) == zv.s_restriction


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _canonical(zv) -> str:
    return json.dumps(zv.to_json(), indent=1, sort_keys=True) + "\n"


def _seed(mu, N):
    return left_invariant_product(double_partition(mu), N)


class TestRightSpan:
    @pytest.mark.parametrize("mu,N", [((1,), 4), ((2,), 4), ((1, 1), 4),
                                      ((2, 1), 4), ((1,), 6)])
    def test_span_is_one_irreducible(self, mu, N):
        span = right_span(_seed(mu, N))
        assert span.rank == weyl_dimension(double_partition(mu), N)

    def test_span_stays_left_invariant(self):
        for row in right_span(_seed((1,), 4)).rows:
            assert invariance_kernel_check(QPolynomial(4, row), LEFT)

    def test_mixed_degree_seed_is_refused(self):
        seed = _seed((1,), 4) + QPolynomial.unit(4)
        with pytest.raises(ValueError, match="not homogeneous"):
            right_span(seed)

    def test_cap_bounds_the_span(self, monkeypatch):
        monkeypatch.setenv("QZ_CAP", "19")
        with pytest.raises(ComponentTooLarge):
            right_span(_seed((2,), 4))
        with pytest.raises(ComponentTooLarge):
            zonal_vector((2,), 4)
        monkeypatch.setenv("QZ_CAP", "20")
        assert right_span(_seed((2,), 4)).rank == 20

    def test_seed_preconditions_are_checked(self, monkeypatch):
        # the highest-weight minor product is no left sp-invariant
        monkeypatch.setattr(isotypic, "left_invariant_product",
                            lambda lam, N: quantum_minor(N, (1, 2), (1, 2)))
        with pytest.raises(NotRelativeInvariant):
            zonal_vector((1,), 4)
        # a left invariant of the wrong row weight
        monkeypatch.setattr(isotypic, "left_invariant_product",
                            lambda lam, N: z_generator("L", 1, 3, N))
        with pytest.raises(NotRelativeInvariant):
            zonal_vector((1,), 4)


class TestPinnedZonalVectors:
    """The vectors the two-sided kernel-and-closure intersection gave."""

    @pytest.mark.parametrize("mu,N", [((1,), 4), ((2,), 4), ((1, 1), 4),
                                      ((2, 1), 4), ((1,), 6), ((1, 1), 6),
                                      ((2,), 6)])
    def test_matches_pinned_bytes(self, mu, N):
        name = "zonal-%s-n%d.json" % ("".join(map(str, mu)), N)
        with open(os.path.join(FIXTURES, name)) as fh:
            assert _canonical(zonal_vector(mu, N)) == fh.read()


class TestPinnedSpKernels:
    """The two-sided sp-kernels the block-split solve gave."""

    @pytest.mark.parametrize("N,d", [(4, 2), (4, 4), (6, 2)])
    def test_matches_pinned_bytes(self, N, d):
        rows = two_sided_sp_kernel(N, d).canonical_rows()
        got = json.dumps([QPolynomial(N, r).to_json() for r in rows],
                         indent=1, sort_keys=True) + "\n"
        with open(os.path.join(FIXTURES, "sp-kernel-n%d-d%d.json" % (N, d))) as fh:
            assert got == fh.read()


nonzero_laurents = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                                   min_size=1, max_size=3) \
    .map(lambda d: Laurent({e: c for e, c in d.items() if c})) \
    .filter(lambda a: not a.is_zero())


@st.composite
def sparse_systems(draw):
    """(rows, number of columns): sparse {col: {v-exponent: int}} rows, some
    of them Laurent combinations of others so the rank can fall short."""
    n = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, n - 1), nonzero_laurents,
                          min_size=1, max_size=3)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        ca, cb = draw(nonzero_laurents), draw(nonzero_laurents)
        combo = {}
        for src, scale in ((a, ca), (b, cb)):
            for c, v in src.items():
                combo[c] = combo.get(c, Laurent()) + scale * v
        rows.append({c: v for c, v in combo.items() if not v.is_zero()})
    return [{c: v.t for c, v in r.items()} for r in rows if r], n


def _dense_rank(rows, n):
    """Rank by dense elimination over the fraction field, the reference."""
    mat = [[RationalScalar(Laurent(r.get(c, {}))) for c in range(n)]
           for r in rows]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, len(mat)) if not mat[i][c].is_zero()), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            if not mat[i][c].is_zero():
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


class TestNullspaceBlock:
    @given(sparse_systems())
    @settings(max_examples=80, deadline=None)
    def test_kernel_of_sparse_system(self, system):
        rows, n = system
        out = isotypic._nullspace_block(rows, range(n))
        for vec in out:
            for row in rows:
                total = Laurent()
                for c, coef in row.items():
                    if c in vec:
                        total = total + Laurent(coef) * Laurent(vec[c])
                assert total.is_zero()
        rank = _dense_rank(rows, n)
        assert len(out) == n - rank
        assert _dense_rank(out, n) == len(out)
        # a column no row touches is free: its unit vector comes back
        for c in set(range(n)) - {c for row in rows for c in row}:
            assert {c: {0: 1}} in out


def _check_zonal(mu, N):
    """Criteria 6 and 8 at one size: a line, invariant on both sides, with
    an s-symmetric restriction that P_mu matches under a convention."""
    zv = zonal_vector(mu, N)               # raises if not one-dimensional
    assert invariance_kernel_check(zv.vector, LEFT)
    assert invariance_kernel_check(zv.vector, RIGHT)
    rest = zv.s_restriction
    assert tuple(mu) + (0,) * (N // 2 - len(mu)) in rest
    for perm in permutations(range(N // 2)):
        assert {tuple(e[i] for i in perm): c for e, c in rest.items()} == rest
    report = compare_zonal(zv)
    got = {e["convention"]: e["match"] for e in report["conventions"]}
    # P_mu is a power of s_1...s_{N/2} when mu has N/2 parts
    assert got == {"(q^2, q^4)": True,
                   "(q^2, q^-4)": len(mu) == N // 2,
                   "(q^-2, q^-4)": True}
    assert all(e["constant"] == "1" for e in report["conventions"] if e["match"])


class TestZonalReach:
    @pytest.mark.parametrize("mu,N", [((2, 2), 4), ((3,), 4), ((1, 1, 1), 6),
                                      ((2,), 6)])
    def test_zonal_matches_macdonald(self, mu, N):
        _check_zonal(mu, N)

    @pytest.mark.stretch
    def test_zonal_matches_macdonald_stretch(self):
        _check_zonal((2, 1), 6)
