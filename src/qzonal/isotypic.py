"""Exact linear algebra on graded components of the quantum matrix ring.

Vectors are sparse maps {normal monomial: {v-exponent: int}}, the shape of
``QPolynomial.terms``: the echelon, spans and kernels take and return these
term maps, and a ``QPolynomial`` is formed only where an operator acts on
one.  Elimination is fraction-free (a row is made primitive once, when it is
stored; divisions happen only at read-out), which keeps the arithmetic in the
Laurent ring where gcds are cheap; a ``Laurent`` is formed only for a gcd
and for back-substitution.  An operator kernel is solved over the
weight-zero monomials of the U_q(sl2) copies whose e_k and f_k it holds:
most constraint rows go through the ``SubspaceBasis`` echelon that also
builds spans, and the rest close its kernel in a few unknowns.  A zonal
vector is the right sp-kernel on the paired-weight rows of one right span:
the span of a left-invariant right highest-weight vector.  That span is an
irreducible right module and right operators keep the column weight, so
projecting onto one column-weight slice is injective on it and commutes
with every right operator: the span's echelon and its sp-kernel are both
decided on the seed's smallest slice, and full rows are formed only where
the kernel vector needs them.

The spans and kernels here are bounded through ``cap.check_cap``, the one
gate of every size bound of the engine.
"""

from __future__ import annotations

from itertools import islice

# ComponentTooLarge is raised by check_cap and re-exported here
from .cap import ComponentTooLarge, check_cap, dimension_cap
from .coeff import (_ONE, L_ONE, L_ZERO, Laurent, RationalScalar, _add_scaled,
                    _zx_content, laurent_gcd)
from .partitions import double_partition, is_partition, pad, trim
from .qmatrix import QPolynomial, count_normal_monomials
from .symplectic import (invariance_kernel_check, left_invariant_product,
                         relative_invariant_check, restrict_H, sp_element,
                         sp_generating_set, torus_to_s)
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

def vec_primitive(vec: dict) -> dict:
    """Divide through by the Laurent gcd; normalize the leading entry's unit."""
    if not vec:
        return vec
    if any(len(c) == 1 for c in vec.values()):
        # a monomial entry forces the polynomial part of the gcd to a unit
        d = _zx_content(v for c in vec.values() for v in c.values())
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

        No gcd is taken here: the residual's line is the same however it is
        scaled, and ``insert`` makes it primitive once, when it is stored.
        """
        vec = dict(vec)
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

    def equals(self, other: "SubspaceBasis") -> bool:
        if self.rank != other.rank:
            return False
        return all(self.contains(r) for r in other.rows)


# ---------------------------------------------------------------------------
# nullspaces of sparse constraint systems
# ---------------------------------------------------------------------------

# the share of a solve's rows, shortest first, that go through its echelon;
# any share is exact, and the longest rows mostly reduce to zero
_HEAD_SHARE = 0.8


def _echelon_nullspace(rows: list, cols) -> list:
    """Nullspace vectors (integral, over the given columns) of the system
    whose rows are {col: {v-exponent: int}} constraints, from one solve.

    The rows, shortest first, go through a forward fraction-free echelon
    (``SubspaceBasis``).  A pivot is always the minimal column of its row, so
    solving pivot columns in decreasing order is triangular and the full
    Gauss-Jordan clearing step is never needed.  A column no row touches is
    free and comes back as its unit vector.  The vectors are not made
    primitive: a caller that stores a combination of them makes it
    primitive then.
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
        # clear denominators to an integral vector
        den = L_ONE
        for val in x.values():
            den = den * val.den.divexact(laurent_gcd(den, val.den))
        out.append({c: (val.num * den.divexact(val.den)).t for c, val in x.items()})
    return out


def _combine(vectors, combo: dict) -> dict:
    """sum_j combo[j] * vectors[j], vectors being a list or any mapping."""
    vec = {}
    for j, c in combo.items():
        _add_scaled(vec, vectors[j], c)
    return vec


def _close(kernel: list, rows: list) -> list:
    """K' ∩ ker(rows) from rows on a basis kernel of K' (row[t] is the value
    on kernel[t]): one solve in len(kernel) unknowns, mapped back through the
    basis.  An empty K' or no rows return K' as it is."""
    if not kernel or not rows:
        return kernel
    return [_combine(kernel, c) for c in _echelon_nullspace(rows, range(len(kernel)))]


def _nullspace_block(rows: list, cols) -> list:
    """_echelon_nullspace of the shortest _HEAD_SHARE of the rows, closed
    (``_close``) on the longer rest, which mostly reduce to zero, with K''s
    basis substituted into them."""
    rows = sorted(rows, key=len)
    cut = int(_HEAD_SHARE * len(rows))
    head = _echelon_nullspace(rows[:cut], cols)
    by_col = {c: {} for c in cols}
    for t, vec in enumerate(head):
        for c, v in vec.items():
            by_col[c][t] = v
    return _close(head, [_combine(by_col, row) for row in rows[cut:]])


# ---------------------------------------------------------------------------
# operator kernels
# ---------------------------------------------------------------------------

def _paired_ks(ops_with_sides: list, side: str, N: int) -> set:
    """The k for which the side's operators hold both e_k and f_k."""
    ops = [op for s, op in ops_with_sides if s == side]
    return {k for k in range(1, N) if gen_e(N, k) in ops and gen_f(N, k) in ops}


def _constraint_rows(ops_with_sides: list, N: int, vectors: list) -> list:
    """One row per (operator, image monomial): the coefficients with which
    each vector's image holds that monomial."""
    constraints = {}
    for j, vec in enumerate(vectors):
        p = QPolynomial(N, vec)
        for oi, (side, op) in enumerate(ops_with_sides):
            for m, c in act(side, op, p).terms.items():
                constraints.setdefault((oi, m), {})[j] = c
    return list(constraints.values())


def _kernel_combinations(ops_with_sides: list, N: int, vectors: list) -> list:
    """The integral combinations {j: c} of the vectors (term maps over the
    N x N ring) that every (side, op) kills.

    Let K be the joint kernel and K' the kernel of a subset of its
    constraints.  Then K ⊆ K' and K = K' ∩ ker(rest), so any split is exact.
    K' is solved for every (side, op) but the mixed sp_f(i, i+1), its rows
    split by length (``_nullspace_block``); the sp_f(i, i+1) then act on the
    dim K' combinations, and that small system closes K' (``_close``).
    """
    closing = [] if N % 2 else [sp_element("f", i, i + 1, N) for i in range(1, N // 2)]
    first = [(side, op) for side, op in ops_with_sides if op not in closing]
    rest = [(side, op) for side, op in ops_with_sides if op in closing]
    kernel = _nullspace_block(_constraint_rows(first, N, vectors), range(len(vectors)))
    combined = [_combine(vectors, c) for c in kernel]
    return _close(kernel, _constraint_rows(rest, N, combined))


def kernel_on(ops_with_sides: list, N: int, vectors: list) -> SubspaceBasis:
    """Vectors in the span of independent term maps over the N x N ring
    killed by every (side, op)."""
    basis = SubspaceBasis()
    basis.unknowns = len(vectors)
    for combo in _kernel_combinations(ops_with_sides, N, vectors):
        basis.insert(_combine(vectors, combo))
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

class SliceSpan:
    """Span of a right highest-weight vector under the right e_k, decided on
    one column-weight slice, breadth-first.

    Right actions keep the column weight, so the projection pi_c onto the
    monomials of column weight c commutes with every right operator.  The
    span of a right highest-weight seed (one the right f_k kill) is the
    irreducible module it generates, so pi_c is injective on it whenever
    pi_c(seed) is nonzero: its kernel is a submodule that misses the seed.
    An image is therefore new to the span iff its slice is new to the
    slice echelon, and only slices are acted on and reduced.  The slice is
    the seed's smallest nonzero one.  Row i is the image of its parent row
    under one right e_k, recorded in ``parents``; ``slices[i]`` is its slice
    and ``full_image(i)`` forms its full image along that tree path, once.
    Every row is homogeneous in row weight, as the seed's images are.

    Injectivity is the caller's to establish: ``zonal_vector`` checks its
    seed exactly first.  The cap bounds the rank, checked as the span
    grows, before any full image is formed.  A seed that mixes degrees is
    refused.
    """

    def __init__(self, seed: QPolynomial):
        N = self.N = seed.N
        if len({len(m) for m in seed.terms}) > 1:
            raise ValueError("the seed is not homogeneous in degree")
        by_weight = {}
        for m, c in seed.terms.items():
            by_weight.setdefault(QPolynomial(N, {m: c}).column_weight(), {})[m] = c
        first = min(by_weight.values(), key=len)
        echelon = SubspaceBasis()
        echelon.insert(first)
        self.slices = [first]
        self.parents = [None]
        self._full = {0: seed.terms}
        ops = [gen_e(N, k) for k in range(1, N)]
        queue = [0]
        while queue:
            nxt = []
            for i in queue:
                p = QPolynomial(N, self.slices[i])
                for k, g in enumerate(ops, 1):
                    image = act(RIGHT, g, p).terms
                    if echelon.insert(image) is not None:
                        check_cap(echelon.rank, "right span rows")
                        nxt.append(len(self.slices))
                        self.slices.append(image)
                        self.parents.append((i, k))
            queue = nxt

    def full_image(self, i: int) -> dict:
        """Row i in full: the seed under the right e_k of its tree path."""
        full = self._full.get(i)
        if full is None:
            parent, k = self.parents[i]
            full = act(RIGHT, gen_e(self.N, k),
                       QPolynomial(self.N, self.full_image(parent))).terms
            self._full[i] = full
        return full


def _paired_row_weight(mono: tuple, N: int) -> bool:
    w = [0] * N
    for g in mono:
        w[g // N] += 1
    return all(w[i] == w[i + 1] for i in range(0, N, 2))


# ---------------------------------------------------------------------------
# zonal vectors
# ---------------------------------------------------------------------------

class ZonalVector:
    __slots__ = ("mu", "vector", "normalization", "s_restriction")

    def __init__(self, mu: tuple, vector: QPolynomial,
                 normalization: RationalScalar, s_restriction: dict):
        self.mu = mu
        self.vector = vector                # primitive integral representative
        self.normalization = normalization  # makes the s^mu coefficient 1
        self.s_restriction = s_restriction  # {s-exponent: {v-exponent: int}}, unnormalized

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

    u = left_invariant_product(mu) is killed by the left sp operators, and
    it is a right highest-weight vector of weight 2mu (row weight 2mu, the
    right f_k kill it); both are checked exactly on the full u.  Left and
    right actions commute, so the right span of u stays left-invariant: it
    is one copy of V_2mu, of size dim V_2mu.  A right-sp-invariant vector
    in it has paired row weight (the weight-zero argument of
    operator_kernel), so the zonal line is the right sp-kernel on the span
    rows of paired row weight, and it must be a line.

    The span is decided on one column-weight slice (``SliceSpan``).  Right
    operators commute with the slice projection and it is injective on the
    span, so a combination of paired rows is right-sp-invariant iff its
    slice is: the kernel is solved on the slices, and the full images of
    the rows the solution uses are summed with it.  The cap bounds the
    span's rank.  Noumi (Adv. Math. 123, 1996) identifies the line's torus
    restriction with the Macdonald polynomial P_mu.
    """
    mu = trim(mu)
    if not is_partition(mu):
        raise ValueError("mu must be a partition")
    if N % 2 or len(mu) > N // 2:
        raise ValueError("mu must fit in the paired ambient size")
    u = left_invariant_product(mu, N)
    if not invariance_kernel_check(u, LEFT):
        raise NotRelativeInvariant(f"the seed for mu={mu}, N={N} is not left sp-invariant")
    if not relative_invariant_check(u, double_partition(mu)):
        raise NotRelativeInvariant(
            f"the seed for mu={mu}, N={N} is not a right highest-weight vector")
    span = SliceSpan(u)
    paired = [i for i, row in enumerate(span.slices) if _paired_row_weight(min(row), N)]
    kernel = _kernel_combinations([(RIGHT, g) for g in sp_generating_set(N)], N,
                                  [span.slices[i] for i in paired])
    if len(kernel) != 1:
        raise NotOneDimensional(
            f"right sp-kernel of the span has dimension {len(kernel)} for mu={mu}, N={N}")
    vec = _combine({j: span.full_image(paired[j]) for j in kernel[0]}, kernel[0])
    poly = QPolynomial(N, vec_primitive(vec))

    srest = torus_to_s(restrict_H(poly), N)
    lead = srest.get(pad(mu, N // 2))
    if lead is None:
        raise NotOneDimensional("torus restriction misses the leading s-monomial")
    return ZonalVector(tuple(mu), poly,
                       RationalScalar(L_ONE, Laurent(lead)), srest)
