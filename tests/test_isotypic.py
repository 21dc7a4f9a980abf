"""Graded components, exact kernels, right spans, zonal extraction."""

import json
import os
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qzonal.coeff import Laurent, RationalScalar, laurent_gcd
from qzonal import isotypic
from qzonal.isotypic import (ComponentTooLarge, GradedComponent,
                             NotOneDimensional, NotRelativeInvariant, SliceSpan,
                             SubspaceBasis, graded_bi_invariant_dimension,
                             kernel_on, operator_kernel, two_sided_sp_kernel,
                             weight_zero_monomials, zonal_vector)
from qzonal.macdonald import compare_zonal, macdonald_polynomial
from qzonal.partitions import count_partitions, double_partition
from qzonal.qmatrix import QPolynomial, count_normal_monomials, quantum_det, quantum_minor
from qzonal.symplectic import (bi_invariant_generator, invariance_kernel_check,
                               left_invariant_product, restrict_H, sp_element,
                               sp_generating_set, torus_to_s, z_generator)
from qzonal.uq_action import LEFT, RIGHT, gen_e

from oracles import (canonical_rows, enumerate_normal_monomials,
                     full_row_zonal_line, generator, one_shot_kernel, right_span)


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
        g = generator(2, 1, 2) * generator(2, 2, 1)
        a = SubspaceBasis()
        a.insert(d.terms)
        a.insert(g.terms)
        b = SubspaceBasis()
        b.insert(g.terms)
        b.insert((d + g.scale(Laurent.q_power(3))).terms)
        assert a.equals(b)
        assert canonical_rows(a) == canonical_rows(b)

    def test_dependent_insert_returns_none(self):
        b = SubspaceBasis()
        v = generator(2, 1, 1).terms
        assert b.insert(v) is not None
        assert b.insert(generator(2, 1, 1).scale(Laurent.q_power(2)).terms) is None
        assert b.rank == 1

    def test_one_row_larger_is_not_equal(self):
        small = SubspaceBasis()
        small.insert(generator(2, 1, 1).terms)
        large = SubspaceBasis()
        large.insert(generator(2, 1, 1).terms)
        large.insert(generator(2, 1, 2).terms)
        assert large.contains(small.rows[0])
        assert not large.equals(small)
        assert not small.equals(large)


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
        assert canonical_rows(pruned) == canonical_rows(full)

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
            span = right_span(left_invariant_product(mu, 4))
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
    return left_invariant_product(mu, N)


class TestRightSpan:
    """The right span of a zonal seed, decided on one column-weight slice."""

    @pytest.mark.parametrize("mu,N", [((1,), 4), ((2,), 4), ((1, 1), 4),
                                      ((2, 1), 4), ((1,), 6)])
    def test_span_is_one_irreducible(self, mu, N):
        span = SliceSpan(_seed(mu, N))
        assert len(span.slices) == weyl_dimension(double_partition(mu), N)

    def test_span_stays_left_invariant(self):
        span = SliceSpan(_seed((1,), 4))
        for i in range(len(span.slices)):
            assert invariance_kernel_check(QPolynomial(4, span.full_image(i)), LEFT)

    def test_mixed_degree_seed_is_refused(self):
        seed = _seed((1,), 4) + QPolynomial.unit(4)
        with pytest.raises(ValueError, match="not homogeneous"):
            SliceSpan(seed)

    def test_cap_bounds_the_span(self, monkeypatch):
        monkeypatch.setenv("QZ_CAP", "19")
        with pytest.raises(ComponentTooLarge):
            SliceSpan(_seed((2,), 4))
        with pytest.raises(ComponentTooLarge):
            zonal_vector((2,), 4)
        monkeypatch.setenv("QZ_CAP", "20")
        assert len(SliceSpan(_seed((2,), 4)).slices) == 20

    @pytest.mark.parametrize("mu,N", [((), 4), ((1,), 4), ((2,), 4), ((1, 1), 4),
                                      ((3,), 4), ((2, 1), 4), ((1, 1), 6),
                                      ((2,), 6), ((1,), 8)])
    def test_agrees_with_the_full_row_span(self, mu, N):
        """The slice echelon reaches the full-row echelon's rank, and the
        kernel solved on slices gives the full-row kernel's line."""
        assert len(SliceSpan(_seed(mu, N)).slices) == right_span(_seed(mu, N)).rank
        assert zonal_vector(mu, N).vector.terms == full_row_zonal_line(mu, N)

    def test_kernel_of_rank_two_is_refused(self, monkeypatch):
        # the diagonal pairs alone (no mixed pair to tie the row weights
        # (1,1,0,0) and (0,0,1,1) together) leave a line in each invariant
        monkeypatch.setattr(isotypic, "sp_generating_set",
                            lambda N: sp_generating_set(N)[:N])
        with pytest.raises(NotOneDimensional, match="dimension 2 "):
            zonal_vector((1,), 4)

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

    def test_seed_of_a_smaller_weight_is_refused(self, monkeypatch):
        # the (1) seed is a left invariant and a right highest-weight vector,
        # but of row weight (1,1,0,0), not the (2,2) that mu = (2) asks for
        monkeypatch.setattr(isotypic, "left_invariant_product",
                            lambda lam, N: left_invariant_product((1,), N))
        with pytest.raises(NotRelativeInvariant, match="highest-weight"):
            zonal_vector((2,), 4)


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
        rows = canonical_rows(two_sided_sp_kernel(N, d))
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


@st.composite
def long_systems(draw):
    """(rows, number of columns): 8-20 sparse rows over 8-10 columns.  The
    first k >= 8 are triangular (row i starts at column i); one row is a
    Laurent combination of all k, so its residual meets k pivots in turn,
    and the rest are combinations of a few rows or fresh sparse rows."""
    n = draw(st.integers(8, 10))
    k = draw(st.integers(8, n))
    rows = []
    for i in range(k):
        tail = draw(st.dictionaries(st.integers(i, n - 1), nonzero_laurents, max_size=3))
        rows.append({**tail, i: draw(nonzero_laurents)})

    def combination(parts):
        combo = {}
        for src in parts:
            scale = draw(nonzero_laurents)
            for c, v in src.items():
                combo[c] = combo.get(c, Laurent()) + scale * v
        return {c: v for c, v in combo.items() if not v.is_zero()}

    rows.append(combination(rows[:k]))
    for _ in range(draw(st.integers(0, 20 - k - 1))):
        if draw(st.booleans()):
            rows.append(combination(draw(st.lists(st.sampled_from(rows),
                                                  min_size=2, max_size=5))))
        else:
            rows.append(draw(st.dictionaries(st.integers(0, n - 1), nonzero_laurents,
                                             min_size=1, max_size=4)))
    return [{c: v.t for c, v in r.items()} for r in rows if r], n


class TestStoredEchelonRows:
    @given(long_systems())
    @settings(max_examples=40, deadline=None)
    def test_stored_rows_are_primitive_and_unit_normal(self, system):
        rows, n = system
        basis = SubspaceBasis()
        for row in rows:
            basis.insert(row)
        for row in basis.rows:
            g = Laurent()
            for c in row.values():
                g = laurent_gcd(g, Laurent(c))
            assert g.is_one()
            lead = row[min(row)]
            assert min(lead) == 0 and lead[max(lead)] > 0
        assert basis.rank == _dense_rank(rows, n)


def _sp_unknowns(N, d):
    """The two-sided sp family and its weight-zero unknowns, as operator_kernel
    picks them."""
    ops = sp_generating_set(N)
    pairs = [(LEFT, g) for g in ops] + [(RIGHT, g) for g in ops]
    monos = weight_zero_monomials(N, d, row_ks=isotypic._paired_ks(pairs, RIGHT, N),
                                  col_ks=isotypic._paired_ks(pairs, LEFT, N))
    return pairs, [{mono: {0: 1}} for mono in sorted(monos)]


def _span(vectors) -> SubspaceBasis:
    basis = SubspaceBasis()
    for vec in vectors:
        basis.insert(vec)
    return basis


class TestSplitKernelSolve:
    """The kernel solved on the e-half and the shorter rows, then closed on
    the sp_f(i, i+1) and the longer rows, against the one-shot solve."""

    @pytest.mark.parametrize("N,d", [(4, 2), (4, 4), (4, 6), (6, 2), (8, 2)])
    def test_equals_one_shot_solve(self, N, d):
        pairs, vectors = _sp_unknowns(N, d)
        split = two_sided_sp_kernel(N, d)
        assert split.unknowns == len(vectors)
        assert split.equals(one_shot_kernel(pairs, N, vectors))

    @pytest.mark.parametrize("N", [6, 8])
    def test_rows_past_the_cut_close_the_kernel(self, N):
        # the family without sp_f(i, i+1) has no closing operators, so only
        # the rows past the cut shrink the kernel of the shortest rows
        pairs, vectors = _sp_unknowns(N, 2)
        closing = [sp_element("f", i, i + 1, N) for i in range(1, N // 2)]
        pairs = [(side, op) for side, op in pairs if op not in closing]
        rows = sorted(isotypic._constraint_rows(pairs, N, vectors), key=len)
        head = isotypic._echelon_nullspace(rows[:int(isotypic._HEAD_SHARE * len(rows))],
                                           range(len(vectors)))
        got = kernel_on(pairs, N, vectors)
        assert got.rank == 1 < len(head)
        assert got.equals(one_shot_kernel(pairs, N, vectors))

    def test_family_of_closing_operators_only(self):
        # every operator is sp_f(1, 2), so the first solve has no rows and K'
        # is the whole span: the closing solve alone decides the kernel
        ops = [(LEFT, sp_element("f", 1, 2, 4))]
        vectors = [{mono: {0: 1}} for mono in enumerate_normal_monomials(4, 2)]
        got = kernel_on(ops, 4, vectors)
        assert 0 < got.rank < len(vectors)
        assert got.equals(one_shot_kernel(ops, 4, vectors))

    def test_closing_on_no_rows_keeps_the_kernel(self):
        kernel = [{0: {0: 1}, 2: {1: -1}}, {1: {0: 1}}]
        assert isotypic._close(kernel, []) == kernel

    @given(sparse_systems())
    @settings(max_examples=60, deadline=None)
    def test_closing_the_identity_basis_is_the_one_shot_solve(self, system):
        rows, n = system
        identity = [{j: {0: 1}} for j in range(n)]
        assert _span(isotypic._close(identity, rows)).equals(
            _span(isotypic._echelon_nullspace(rows, range(n))))

    def test_closing_the_identity_basis_on_sp_rows(self):
        pairs, vectors = _sp_unknowns(4, 4)
        rows = isotypic._constraint_rows(pairs, 4, vectors)
        identity = [{j: {0: 1}} for j in range(len(vectors))]
        closed = _span(isotypic._close(identity, rows))
        assert closed.rank == 2
        assert closed.equals(_span(isotypic._echelon_nullspace(rows, range(len(vectors)))))


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
    # (q^2, q^4) and (q^-2, q^-4) agree, as P_mu(1/q, 1/t) = P_mu(q, t).
    # (q^2, q^-4) matches iff t -> q^4 and t -> q^-4 give P_mu alike.  At
    # every size run so far, that is when mu - mu_n 1^n is a single column
    # (1^r), n = N/2: P_(1^r) = e_r, and P_mu = (x_1...x_n)^mu_n P_(mu - mu_n 1^n).
    try:
        flip = all(c.substitute_v(2, 4) == c.substitute_v(2, -4)
                   for c in macdonald_polynomial(mu, N // 2).values())
    except ZeroDivisionError:
        flip = False
    assert got == {"(q^2, q^4)": True, "(q^2, q^-4)": flip, "(q^-2, q^-4)": True}
    assert all(e["constant"] == "1" for e in report["conventions"] if e["match"])


class TestZonalReach:
    @pytest.mark.parametrize("mu,N", [((2, 2), 4), ((3,), 4), ((1, 1, 1), 6),
                                      ((2,), 6), ((2,), 8), ((1,), 4), ((1,), 6),
                                      ((1, 1), 6), ((3, 1), 4)])
    def test_zonal_matches_macdonald(self, mu, N):
        _check_zonal(mu, N)

    @pytest.mark.stretch
    def test_zonal_matches_macdonald_stretch(self):
        _check_zonal((2, 1), 6)
