"""The quantum coordinate ring of N x N quantum matrices.

Generators x[i,j] (1-based row i, column j) obey, for i < j and k < l:

    x[i,k] x[j,k] = q x[j,k] x[i,k]            (same column)
    x[k,i] x[k,j] = q x[k,j] x[k,i]            (same row)
    x[i,l] x[j,k] = x[j,k] x[i,l]              (antidiagonal pair)
    x[i,k] x[j,l] - x[j,l] x[i,k] = (q - q^-1) x[i,l] x[j,k]   (diagonal pair)

A monomial is *normal* when its letters are weakly increasing in the
row-major order on (row, col).  Every word straightens to a unique integer
combination of normal monomials; the rewriter below works one letter at a
time, inserting a generator into an already-normal word from the right.
Each rewrite either swaps an adjacent out-of-order pair at fixed inversion
count zero cost (antidiagonal), scales it (same row/column), or splits off a
word with strictly fewer inversions (diagonal), so the process terminates.

Letters are encoded as small integers g = (row-1)*N + (col-1); a normal
monomial is a sorted tuple of letters.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations
from math import comb
from operator import add

from .cap import check_cap
# AmbientMismatch is raised by Combination and re-exported here
from .coeff import _ONE, L_ONE, AmbientMismatch, Combination, Laurent, _add_scaled
from .partitions import lehmer_inversions


class IndexOutOfRange(ValueError):
    """A generator index falls outside 1..N."""


class SizeMismatch(ValueError):
    """Row and column index sets of a minor differ in size.  No verb reaches
    it: every minor a verb forms has index sets of equal size."""


class Inhomogeneous(ValueError):
    """The polynomial has no common multidegree.  No verb reaches it: only the
    zonal seed, which is homogeneous, is asked for a row weight."""


def gen_id(N: int, row: int, col: int) -> int:
    if not (1 <= row <= N and 1 <= col <= N):
        raise IndexOutOfRange(f"generator ({row},{col}) outside 1..{N}")
    return (row - 1) * N + (col - 1)


def gen_rc(N: int, g: int) -> tuple:
    return g // N + 1, g % N + 1


# ---------------------------------------------------------------------------
# straightening engine
# ---------------------------------------------------------------------------

# per-N memo of nontrivial letter insertions: (mono, g) -> {normal mono:
# {v-exponent: int}}, keyed by the moving suffix (every letter of mono is > g)
_INSERT_CACHES: dict = {}

_MQCOMM = {-2: 1, 2: -1}  # q^-1 - q


def _insert(N, cache, mono, g):
    """Normal form of (normal mono) * x_g as {normal mono: {v-exponent: int}}.

    Every letter of mono is > g: the letters <= g never move, so callers pass
    only the suffix that does (see _times_gen), and the memo is keyed by it.
    """
    if not mono:
        return {(g,): _ONE}
    key = (mono, g)
    hit = cache.get(key)
    if hit is not None:
        return hit
    a = mono[-1]
    head = mono[:-1]
    ra, ca = divmod(a, N)
    rg, cg = divmod(g, N)
    if ra == rg or ca == cg:
        # x_a x_g = q^-1 x_g x_a; all letters of the recursion stay <= a
        res = {m + (a,): {e - 2: k for e, k in c.items()}
               for m, c in _insert(N, cache, head, g).items()}
    else:
        # rows rg < ra: the pair commutes when cg > ca; when cg < ca,
        # x_a x_g = x_g x_a - (q-q^-1) x_g' x_a', where both new letters
        # g' = (rg, ca) and a' = (ra, cg) are > g
        res = {m + (a,): c for m, c in _insert(N, cache, head, g).items()}
        if cg < ca:
            split = _mono_times_gen(N, cache, _times_gen(N, cache, head, rg * N + ca),
                                    ra * N + cg)
            _add_scaled(res, split, _MQCOMM)
    cache[key] = res
    return res


def _times_gen(N, cache, mono, g):
    """Normal form of (normal mono) * x_g: the prefix of letters <= g stays
    in front of the inserted suffix."""
    p = bisect_right(mono, g)
    if not p:
        return _insert(N, cache, mono, g)
    head = mono[:p]
    return {head + m: c for m, c in _insert(N, cache, mono[p:], g).items()}


def _mono_times_gen(N, cache, poly, g):
    """{mono: {v-exponent: int}} * x_g with renormalization."""
    out = {}
    for m, c in poly.items():
        if not m or m[-1] <= g:
            _add_scaled(out, {m + (g,): c})
        else:
            _add_scaled(out, _times_gen(N, cache, m, g), c)
    return out


def _times_word(N, terms, letters):
    """Normal form of {normal mono: {v-exponent: int}} times the word of
    letters, one letter at a time."""
    cache = _INSERT_CACHES.setdefault(N, {})
    for g in letters:
        terms = _mono_times_gen(N, cache, terms, g)
    return terms


class QPolynomial(Combination):
    """Element of the quantum matrix ring in PBW-normal form:
    {normal monomial: {v-exponent: int}}."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def unit(N):
        return QPolynomial(N, {(): _ONE})

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Laurent)):
            return self.scale(other)
        self._check(other)
        out = {}
        for m2, c2 in other.terms.items():
            _add_scaled(out, _times_word(self.N, self.terms, m2), c2)
        return QPolynomial(self.N, out)

    # -- gradings ------------------------------------------------------------

    def _one_weight(self, by_row: bool):
        N = self.N
        seen = None
        for m in self.terms:
            w = [0] * N
            for g in m:
                w[g // N if by_row else g % N] += 1
            w = tuple(w)
            if seen is None:
                seen = w
            elif seen != w:
                raise Inhomogeneous("terms carry different weights")
        return seen if seen is not None else (0,) * N

    def row_weight(self):
        """Row multidegrees; raises Inhomogeneous."""
        return self._one_weight(True)

    def column_weight(self):
        return self._one_weight(False)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        items = sorted(self.terms.items())
        return {
            "N": self.N,
            "terms": [
                {"word": [list(gen_rc(self.N, g)) for g in m], "coeff": Laurent(c).to_json()}
                for m, c in items
            ],
        }

    @staticmethod
    def from_json(obj):
        """Inverse of to_json; words need not be normal.  N and the word
        indices must be ints: a float or string is refused, not truncated.
        The term count is held to the size cap after each word."""
        N = obj["N"]
        if type(N) is not int or N < 1:
            raise TypeError(f"N = {N!r} is not a positive integer")
        out = {}
        for entry in obj["terms"]:
            word = [(r, c) for r, c in entry["word"]]
            if any(type(i) is not int for rc in word for i in rc):
                raise TypeError(f"word {word!r} has an index that is not an integer")
            coeff = Laurent.from_json(entry["coeff"])
            _add_scaled(out, normal_form(N, word, coeff).terms)
            check_cap(len(out), "terms of an input polynomial")
        return QPolynomial(N, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            word = "*".join("x%d%d" % gen_rc(self.N, g) for g in m) or "1"
            bits.append("(%r)*%s" % (Laurent(c), word))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def normal_form(N: int, word, coeff: Laurent = L_ONE) -> QPolynomial:
    """Straighten a word of (row, col) generator pairs into normal form,
    holding the term count to the size cap after each letter."""
    letters = [gen_id(N, r, c) for r, c in word]
    if coeff.is_zero():
        return QPolynomial(N)
    terms = {(): coeff.t}
    for g in letters:
        terms = _times_word(N, terms, (g,))
        check_cap(len(terms), "terms of a straightened word")
    return QPolynomial(N, terms)


def quantum_minor(N: int, rows, cols) -> QPolynomial:
    """Sum over permutations s of (-q)^inv(s) x[r1,c_s(1)] ... x[rk,c_s(k)]."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise SizeMismatch("row and column sets differ in size")
    if any(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)) or \
       any(cols[i] >= cols[i + 1] for i in range(len(cols) - 1)):
        raise IndexOutOfRange("minor index sets must be strictly increasing")
    r = len(rows)
    signs = [{2 * inv: -1 if inv % 2 else 1} for inv in range(r * (r - 1) // 2 + 1)]
    shifts = [gen_id(N, i, 1) for i in rows]
    free = [gen_id(N, 1, c) for c in cols]
    # rows strictly increase, so every word is already normal
    return QPolynomial(N, {tuple(map(add, shifts, s)): signs[inv]
                           for s, inv in zip(permutations(free), lehmer_inversions(r))})


def quantum_det(N: int) -> QPolynomial:
    rng = tuple(range(1, N + 1))
    return quantum_minor(N, rng, rng)


def count_normal_monomials(N: int, d: int) -> int:
    """Free commutative count binom(N^2 + d - 1, d)."""
    return comb(N * N + d - 1, d)
