"""Exact linear algebra on graded components of the quantum matrix ring.

Vectors are sparse maps {normal monomial: {v-exponent: int}}, the shape of
``QPolynomial.terms``: the echelon, spans and kernels take and return these
term maps, and a ``QPolynomial`` is formed only where an operator acts on
one.  Elimination is fraction-free (rows stay integral and primitive,
divisions happen only at read-out), which keeps the arithmetic in the
Laurent ring where gcds are cheap; a ``Laurent`` is formed only for a gcd
and for back-substitution.  An operator kernel is one solve over the
weight-zero monomials of the U_q(sl2) copies whose e_k and f_k it holds: all
constraint rows go through the one ``SubspaceBasis`` echelon that also
builds spans, then back-substitution in the fraction field.  A zonal
vector is the right sp-kernel on the paired-weight rows of one right span:
the span of a left-invariant right highest-weight vector.

The spans and kernels here are bounded through ``cap.check_cap``, the one
gate of every size bound of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

# ComponentTooLarge is raised by check_cap and re-exported here
from .cap import ComponentTooLarge, check_cap, dimension_cap
from .coeff import _ONE, L_ONE, L_ZERO, Laurent, RationalScalar, _add_scaled, laurent_gcd
from .partitions import double_partition, is_partition, pad, trim
from .qmatrix import QPolynomial, count_normal_monomials
from .symplectic import (G_MOD_B, invariance_kernel_check, left_invariant_product,
                         relative_invariant_check, restrict_H, sp_generating_set,
                         torus_to_s)
from .uq_action import LEFT, RIGHT, act, gen_e, gen_f


class NotOneDimensional(RuntimeError):
    """A slice expected to be a line has a different dimension."""


class NotRelativeInvariant(RuntimeError):
    """A zonal seed fails its exact invariance or highest-weight test."""


# ---------------------------------------------------------------------------
# graded components
# ---------------------------------------------------------------------------

class GradedComponent:
    """The span of the normal monomials of one total degree: the domain of
    operator_kernel."""

    def __init__(self, N: int, degree: int):
        if N < 1 or degree < 0:
            raise ValueError(f"no graded component for N={N}, degree={degree}")
        self.N = N
        self.degree = degree

    @property
    def dim(self):
        return count_normal_monomials(self.N, self.degree)


def _vectors(total: int, caps: tuple, ks=(), head=()):
    """Non-negative vectors summing to total with entry i at most caps[i]
    and w_k = w_{k+1} (1-based) for every k in ks."""
    i = len(head)
    if i == len(caps):
        if total == 0:
            yield head
        return
    top = min(total, caps[i])
    for x in ((head[-1],) if i in ks else range(top + 1)):
        if x <= top:
            yield from _vectors(total - x, caps, ks, head + (x,))


def _tables(row_sums: tuple, col_sums: tuple):
    """Row-major flattened non-negative integer tables with these margins."""
    if not row_sums:
        yield ()
        return
    for first in _vectors(row_sums[0], col_sums):
        rest = tuple(c - a for c, a in zip(col_sums, first))
        for tail in _tables(row_sums[1:], rest):
            yield first + tail


def weight_zero_monomials(N: int, degree: int, row_ks=(), col_ks=()):
    """Normal monomials of the degree whose row weight has w_k = w_{k+1} for
    every k in row_ks and whose column weight does so for every k in col_ks.

    A normal monomial is its table of letter multiplicities, so those of
    bi-weight (r, c) are the N x N non-negative integer tables with row sums
    r and column sums c.  With no ks this is the whole component.
    """
    caps = (degree,) * N
    for r in _vectors(degree, caps, row_ks):
        for c in _vectors(degree, caps, col_ks):
            for table in _tables(r, c):
                yield tuple(g for g, a in enumerate(table) for _ in range(a))


# ---------------------------------------------------------------------------
# sparse fraction-free vectors
# ---------------------------------------------------------------------------

def _int_gcd_many(vec) -> int:
    d = 0
    for c in vec.values():
        for v in c.values():
            d = gcd(d, v)
            if d == 1:
                return 1
    return d


def vec_primitive(vec: dict) -> dict:
    """Divide through by the Laurent gcd; normalize the leading entry's unit."""
    if not vec:
        return vec
    if any(len(c) == 1 for c in vec.values()):
        # a monomial entry forces the polynomial part of the gcd to a unit
        d = _int_gcd_many(vec)
        if d > 1:
            vec = {i: {e: v // d for e, v in c.items()} for i, c in vec.items()}
    else:
        g = L_ZERO
        for c in sorted(vec.values(), key=len):
            g = laurent_gcd(g, Laurent(c))
            if g.is_one():
                break
        if not g.is_one():
            vec = {i: Laurent(c).divexact(g).t for i, c in vec.items()}
    # the unit of the leading entry is sign * v^lo: shift by -lo, times sign
    lead = vec[min(vec)]
    lo, sign = min(lead), 1 if lead[max(lead)] > 0 else -1
    if lo or sign < 0:
        vec = {i: {e - lo: sign * v for e, v in c.items()} for i, c in vec.items()}
    return vec


class SubspaceBasis:
    """Row space in echelon form: distinct pivot (minimal-monomial) columns."""

    def __init__(self):
        self.rows: list = []
        self.pivot_map: dict = {}
        self.unknowns = None     # monomials solved for, when a kernel solve built it

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Fraction-free residual of vec against the basis (scaled freely).

        The residual is made primitive every 8 steps, which keeps its
        coefficients from growing with the number of rows it meets.
        """
        vec = dict(vec)
        steps = 0
        while vec:
            p = min(vec)
            r = self.pivot_map.get(p)
            if r is None:
                return vec
            # vec := row[p] * vec - vec[p] * row, in place on this copy
            row = self.rows[r]
            neg = {e: -v for e, v in vec[p].items()}
            if row[p] != _ONE:
                vec = _add_scaled({}, vec, row[p])
            _add_scaled(vec, row, neg)
            steps += 1
            if steps % 8 == 0 and vec:
                vec = vec_primitive(vec)
        return vec

    def insert(self, vec: dict):
        """Insert a vector; returns the primitive residual row or None."""
        res = self.reduce(vec)
        if not res:
            return None
        res = vec_primitive(res)
        self.pivot_map[min(res)] = len(self.rows)
        self.rows.append(res)
        return res

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def canonical_rows(self) -> list:
        """Fully reduced echelon rows, primitive, sorted by pivot column.

        This form is construction-independent, so two bases of the same
        subspace compare equal row by row.
        """
        rows = [dict(r) for r in self.rows]
        order = sorted(range(len(rows)), key=lambda r: min(rows[r]) if rows[r] else -1)
        rows = [rows[r] for r in order]
        for i in range(len(rows) - 1, -1, -1):
            p = min(rows[i])
            for j in range(len(rows)):
                if j != i and p in rows[j]:
                    neg = {e: -v for e, v in rows[j][p].items()}
                    if rows[i][p] != _ONE:
                        rows[j] = _add_scaled({}, rows[j], rows[i][p])
                    _add_scaled(rows[j], rows[i], neg)
            rows[i] = vec_primitive(rows[i])
        return [vec_primitive(r) for r in rows]

    def equals(self, other: "SubspaceBasis") -> bool:
        if self.rank != other.rank:
            return False
        return all(self.contains(r) for r in other.rows)


# ---------------------------------------------------------------------------
# nullspaces of sparse constraint systems
# ---------------------------------------------------------------------------

def _nullspace_block(rows: list, cols) -> list:
    """Nullspace vectors (primitive, over the given columns) of the system
    whose rows are {col: {v-exponent: int}} constraints.

    The rows, shortest first, go through a forward fraction-free echelon
    (``SubspaceBasis``).  A pivot is always the minimal column of its row, so
    solving pivot columns in decreasing order is triangular and the full
    Gauss-Jordan clearing step is never needed.  A column no row touches is
    free and comes back as its unit vector.
    """
    echelon = SubspaceBasis()
    for row in sorted(rows, key=len):
        echelon.insert(row)
    # back-substitution runs in the fraction field, on Laurent entries
    pivots = {min(row): {c: Laurent(v) for c, v in row.items()} for row in echelon.rows}
    free = [c for c in cols if c not in pivots]
    if not free:
        return []
    order = sorted(pivots, reverse=True)
    out = []
    for f in free:
        x = {f: RationalScalar.one()}
        for p in order:
            prow = pivots[p]
            acc = None
            for c, coef in prow.items():
                if c == p:
                    continue
                xv = x.get(c)
                if xv is not None:
                    term = xv * coef
                    acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                x[p] = -(acc / prow[p])
        x = {c: v for c, v in x.items() if not v.is_zero()}
        # clear denominators to a primitive integral vector
        den = L_ONE
        for val in x.values():
            den = den * val.den.divexact(laurent_gcd(den, val.den))
        vec = {c: (val.num * den.divexact(val.den)).t for c, val in x.items()}
        out.append(vec_primitive(vec))
    return out


# ---------------------------------------------------------------------------
# operator kernels
# ---------------------------------------------------------------------------

def _paired_ks(ops_with_sides: list, side: str, N: int) -> set:
    """The k for which the side's operators hold both e_k and f_k."""
    ops = [op for s, op in ops_with_sides if s == side]
    return {k for k in range(1, N) if gen_e(N, k) in ops and gen_f(N, k) in ops}


def kernel_on(ops_with_sides: list, N: int, vectors: list) -> SubspaceBasis:
    """Vectors in the span of independent term maps over the N x N ring
    killed by every (side, op), from one fraction-free solve for their
    coefficients."""
    constraints = {}
    for j, vec in enumerate(vectors):
        p = QPolynomial(N, vec)
        for oi, (side, op) in enumerate(ops_with_sides):
            for m, c in act(side, op, p).terms.items():
                constraints.setdefault((oi, m), {})[j] = c
    basis = SubspaceBasis()
    basis.unknowns = len(vectors)
    for combo in _nullspace_block(list(constraints.values()), range(len(vectors))):
        vec = {}
        for j, c in combo.items():
            _add_scaled(vec, vectors[j], c)
        basis.insert(vec)
    return basis


def operator_kernel(ops_with_sides: list, component: GradedComponent) -> SubspaceBasis:
    """Joint kernel of degree-preserving operators given as (side, op) pairs.

    If a side's operators include both e_k and f_k, a kernel vector is
    killed by both, and in a finite-dimensional type-1 U_q(sl2)-module such
    a vector has weight 0 (Jantzen, Lectures on Quantum Groups, ch. 2).
    Since e_k and f_k move weight spaces to weight spaces, every weight
    component of a kernel vector is in the kernel too, so the kernel lies in
    the span of the monomials with w_k = w_{k+1}, where w is the weight that
    side's action changes: the column weight for left actions, the row
    weight for right actions.  Only those monomials are unknowns.  The cap
    bounds how many there are; counting stops one past it.
    """
    N = component.N
    unknowns = sorted(islice(
        weight_zero_monomials(N, component.degree,
                              row_ks=_paired_ks(ops_with_sides, RIGHT, N),
                              col_ks=_paired_ks(ops_with_sides, LEFT, N)),
        dimension_cap() + 1))
    check_cap(len(unknowns), "or more kernel unknowns")
    return kernel_on(ops_with_sides, N, [{mono: _ONE} for mono in unknowns])


_SP_KERNEL_CACHE: dict = {}


def two_sided_sp_kernel(N: int, degree: int) -> SubspaceBasis:
    key = (N, degree)
    hit = _SP_KERNEL_CACHE.get(key)
    if hit is not None:
        check_cap(hit.unknowns, "kernel unknowns")
        return hit
    ops = sp_generating_set(N)
    pairs = [(LEFT, g) for g in ops] + [(RIGHT, g) for g in ops]
    basis = operator_kernel(pairs, GradedComponent(N, degree))
    _SP_KERNEL_CACHE[key] = basis
    return basis


def graded_bi_invariant_dimension(m: int, N: int) -> int:
    return two_sided_sp_kernel(N, 2 * m).rank


# ---------------------------------------------------------------------------
# right spans
# ---------------------------------------------------------------------------

def right_span(seed: QPolynomial) -> SubspaceBasis:
    """Span of a homogeneous seed under the right e_k, breadth-first.

    Right e_k lowers the row weight, so the span of a right highest-weight
    vector (one the right f_k kill) is the irreducible module it generates.
    Every row is homogeneous in row weight: an inserted image is, and a row
    it is reduced by shares its pivot monomial.  The cap bounds the rank,
    checked as the span grows.  A seed that mixes degrees is refused.
    """
    N = seed.N
    if len({len(m) for m in seed.terms}) > 1:
        raise ValueError("the seed is not homogeneous in degree")
    span = SubspaceBasis()
    queue = [span.insert(seed.terms)]
    ops = [gen_e(N, k) for k in range(1, N)]
    while queue:
        nxt = []
        for row in queue:
            p = QPolynomial(N, row)
            for g in ops:
                res = span.insert(act(RIGHT, g, p).terms)
                if res is not None:
                    check_cap(span.rank, "right span rows")
                    nxt.append(res)
        queue = nxt
    return span


def _paired_row_weight(mono: tuple, N: int) -> bool:
    w = [0] * N
    for g in mono:
        w[g // N] += 1
    return all(w[i] == w[i + 1] for i in range(0, N, 2))


# ---------------------------------------------------------------------------
# zonal vectors
# ---------------------------------------------------------------------------

@dataclass
class ZonalVector:
    mu: tuple
    vector: QPolynomial          # primitive integral representative
    normalization: RationalScalar  # scalar making the s^mu coefficient 1
    s_restriction: dict          # {s-exponent tuple: {v-exponent: int}}, unnormalized

    def normalized_s_coefficients(self) -> dict:
        return {e: self.normalization * Laurent(c) for e, c in self.s_restriction.items()}

    def to_json(self):
        obj = self.vector.to_json()
        return {
            "N": obj["N"],
            "degree": 2 * sum(self.mu),
            "lambda": list(self.mu),
            "rank": 1,
            "terms": obj["terms"],
            "normalization": self.normalization.to_json(),
        }


def zonal_vector(mu, N: int) -> ZonalVector:
    """The bi-invariant line in the block of the doubled partition 2mu.

    u = left_invariant_product(2mu) is killed by the left sp operators, and
    it is a right highest-weight vector of weight 2mu (row weight 2mu, the
    right f_k kill it); both are checked exactly.  Left and right actions
    commute, so the right span of u stays left-invariant: it is one copy of
    V_2mu, of size dim V_2mu.  A right-sp-invariant vector in it has paired
    row weight (the weight-zero argument of operator_kernel), so the zonal
    line is the right sp-kernel on the span rows of paired row weight, and
    it must be a line.  The cap bounds the span's rank.
    """
    mu = trim(mu)
    if not is_partition(mu):
        raise ValueError("mu must be a partition")
    if N % 2 or len(mu) > N // 2:
        raise ValueError("mu must fit in the paired ambient size")
    lam = double_partition(mu)
    u = left_invariant_product(lam, N)
    if not invariance_kernel_check(u, LEFT):
        raise NotRelativeInvariant(f"the seed for mu={mu}, N={N} is not left sp-invariant")
    if not relative_invariant_check(u, lam, G_MOD_B):
        raise NotRelativeInvariant(
            f"the seed for mu={mu}, N={N} is not a right highest-weight vector")
    span = right_span(u)
    paired = [r for r in span.rows if _paired_row_weight(min(r), N)]
    kernel = kernel_on([(RIGHT, g) for g in sp_generating_set(N)], N, paired)
    if kernel.rank != 1:
        raise NotOneDimensional(
            f"right sp-kernel of the span has dimension {kernel.rank} for mu={mu}, N={N}")
    poly = QPolynomial(N, kernel.rows[0])

    srest = torus_to_s(restrict_H(poly), N)
    lead = srest.get(pad(mu, N // 2))
    if lead is None:
        raise NotOneDimensional("torus restriction misses the leading s-monomial")
    return ZonalVector(tuple(mu), poly,
                       RationalScalar(L_ONE, Laurent(lead)), srest)
