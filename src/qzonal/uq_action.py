"""Left and right quantized enveloping-algebra actions on the quantum matrix ring.

Generator actions on a single matrix entry (1-based indices):

    left:   e_k . x[i,j] = x[i,j-1] if j == k+1 else 0
            f_k . x[i,j] = x[i,j+1] if j == k   else 0
            qw  . x[i,j] = v^<2w, eps_j> x[i,j]        (column weight)
    right:  x[i,j] . e_k = x[i+1,j] if i == k   else 0
            x[i,j] . f_k = x[i-1,j] if i == k+1 else 0
            x[i,j] . qw  = v^<2w, eps_i> x[i,j]        (row weight)

The action extends to products through the twisted Leibniz rule coming from
the coproduct a |-> a (x) q^{-alpha_k/2} + q^{alpha_k/2} (x) a: the generator
acts once at each factor position, with q^{+alpha_k/2} twists applied to the
factors left of that position and q^{-alpha_k/2} twists to the right.  The
same left-to-right twist pattern applies on both sides.

Weights are stored doubled (an integer vector w encodes the half-integral
weight w/2), so every twist exponent is an integer power of v.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .coeff import _ONE, Combination, Laurent, _add_scaled
from .qmatrix import IndexOutOfRange, QPolynomial

LEFT = "left"
RIGHT = "right"


# ---------------------------------------------------------------------------
# operators as combinations of atom words
# ---------------------------------------------------------------------------
# atoms: ('e', k), ('f', k) with 1 <= k <= N-1, and ('q', coords) with coords a
# doubled integer weight vector of length N.

class UqElement(Combination):
    """Finite combination of words in the generators e_k, f_k, q^w, with
    {v-exponent: int} coefficients."""

    __slots__ = ()

    @staticmethod
    def zero(N):
        return UqElement(N)

    @staticmethod
    def one(N):
        return UqElement(N, {(): _ONE})

    def __mul__(self, other):
        """Composition in the algebra: (uv) acts by u after v on the left."""
        if isinstance(other, (int, Laurent)):
            return self.scale(other)
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            _add_scaled(out, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        return UqElement(self.N, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), repr(w))):
            c = self.terms[w]
            word = " ".join(_atom_str(a) for a in w) or "1"
            bits.append("(%r) %s" % (Laurent(c), word))
        return " + ".join(bits)


def _atom_str(atom):
    kind = atom[0]
    if kind in ("e", "f"):
        return "%s%d" % (kind, atom[1])
    return "q½[%s]" % ",".join(str(c) for c in atom[1])


def gen_e(N: int, k: int) -> UqElement:
    if not 1 <= k <= N - 1:
        raise IndexOutOfRange(f"e_{k} needs 1 <= k <= {N - 1}")
    return UqElement(N, {(("e", k),): _ONE})


def gen_f(N: int, k: int) -> UqElement:
    if not 1 <= k <= N - 1:
        raise IndexOutOfRange(f"f_{k} needs 1 <= k <= {N - 1}")
    return UqElement(N, {(("f", k),): _ONE})


def q_weight(N: int, doubled_coords) -> UqElement:
    """q^w for the half-integral weight w = doubled_coords / 2."""
    coords = tuple(doubled_coords)
    if len(coords) != N:
        raise IndexOutOfRange("weight vector length must equal N")
    return UqElement(N, {(("q", coords),): _ONE})


def alpha_coords(N: int, k: int, half=False) -> tuple:
    """Doubled coordinates of alpha_k (or alpha_k/2 when half)."""
    unit = 1 if half else 2
    out = [0] * N
    out[k - 1] = unit
    out[k] = -unit
    return tuple(out)


# ---------------------------------------------------------------------------
# atom action on a normal monomial, with memoization
# ---------------------------------------------------------------------------

# per-N memo: (side, kind, k, mono) -> {mono: {v-exponent: int}}.  A hit is
# returned as it is stored, so no caller may change its maps.
_ATOM_CACHES: dict = {}


def _act_ef_mono(N, side, kind, k, mono):
    """Action of e_k/f_k on one normal monomial -> {mono: {v-exponent: int}}.

    Lemma.  The atom turns one copy of a letter g into its neighbour g' one
    column (left) or row (right) over.  Straightening moves g' past only the
    copies of g beyond it and the letters strictly between g and g' in the
    row-major order.  Each shares a row or column with g' (a factor q^-1) or
    is antidiagonal to it (they commute), never diagonal, so no (q - q^-1)
    split occurs.  All a copies of g give one monomial, and the run gives
    v^s [a] with s = P - S - 2m - (a - 1): P and S are the alpha_k-pairings
    (in v-units) of the letters before and after the run, and m counts the
    letters strictly between g and g' that share a row or column with g'.
    The image's coefficient v^s [a] is the map {s - 2(a-1) + 4i: 1, i < a}.
    """
    cache = _ATOM_CACHES.setdefault(N, {})
    key = (side, kind, k, mono)
    hit = cache.get(key)
    if hit is not None:
        return hit

    left = side == LEFT
    # per-letter index the atom looks at; its alpha_k pairing (in v-units) is
    # +1 at index k-1 and -1 at index k.  No comprehension in this function:
    # a local it captured would become a cell, which slows every cache hit.
    idxs = list(map(N.__rmod__ if left else N.__rfloordiv__, mono))
    # column moves are +-1 on the letter id, row moves are +-N
    if left:
        src, delta_id = (k, -1) if kind == "e" else (k - 1, 1)
    else:
        src, delta_id = (k - 1, N) if kind == "e" else (k, -N)

    out = {}
    total = idxs.count(k - 1) - idxs.count(k)
    tw = 1 if src == k - 1 else -1
    for pos, x in enumerate(idxs):
        if x != src or (pos and mono[pos - 1] == mono[pos]):
            continue
        g = mono[pos]
        a = bisect_right(mono, g, pos) - pos
        new = g + delta_id
        # drop one copy of g, put g' in order; g' passes the letters `between`
        if new > g:
            hi = bisect_left(mono, new, pos)
            between = mono[pos + a:hi]
            image = mono[:pos] + mono[pos + 1:hi] + (new,) + mono[hi:]
        else:
            lo = bisect_right(mono, new, 0, pos)
            between = mono[lo:pos]
            image = mono[:lo] + (new,) + mono[lo:pos] + mono[pos + 1:]
        rn, cn = divmod(new, N)
        m = 0
        for h in between:
            m += h // N == rn or h % N == cn
        head = idxs[:pos]
        s = 2 * (head.count(k - 1) - head.count(k)) - total + tw * a - 2 * m - (a - 1)
        out[image] = dict.fromkeys(range(s - 2 * (a - 1), s + 2 * a, 4), 1)
    cache[key] = out
    return out


def _act_atom(N, side, atom, terms):
    """One atom ('e', k) | ('f', k) | ('q', coords) on {mono: {v-exponent: int}}."""
    kind, arg = atom
    out = {}
    if kind == "q":
        # q^w scales each monomial by a unit v^<2w, weight>: a shift of exponents
        left = side == LEFT
        for m, c in terms.items():
            s = sum(arg[g % N if left else g // N] for g in m)
            out[m] = {e + s: a for e, a in c.items()}
        return out
    if not 1 <= arg <= N - 1:
        raise IndexOutOfRange(f"{kind}_{arg} outside 1..{N - 1}")
    for m, c in terms.items():
        _add_scaled(out, _act_ef_mono(N, side, kind, arg, m), c)
    return out


def act(side: str, u: UqElement, p: QPolynomial) -> QPolynomial:
    """Apply an operator.  Left actions compose (uv).p = u.(v.p); right
    actions compose p.(uv) = (p.u).v.  The image of every word is added
    into one sum."""
    if side not in (LEFT, RIGHT):
        raise ValueError("side must be 'left' or 'right'")
    u._check(p)
    N = p.N
    total = {}
    for word, coeff in u.terms.items():
        cur = p.terms
        for atom in reversed(word) if side == LEFT else word:
            if not cur:
                break
            cur = _act_atom(N, side, atom, cur)
        _add_scaled(total, cur, coeff)
    return QPolynomial(N, total)


# ---------------------------------------------------------------------------
# composite root vectors
# ---------------------------------------------------------------------------

def composite_E(N: int, i: int, j: int, via: int | None = None) -> UqElement:
    """E[i,j] built from E[i,k]E[k,j] - E[k,j]E[i,k]; base cases are e_k, f_k.

    The intermediate index defaults to min(i,j)+1; any valid choice gives the
    same operator on the matrix ring (checked in the test-suite rather than
    assumed).
    """
    if i == j or not (1 <= i <= N and 1 <= j <= N):
        raise IndexOutOfRange(f"E[{i},{j}] needs distinct indices in 1..{N}")
    if j == i + 1:
        return gen_e(N, i)
    if j == i - 1:
        return gen_f(N, j)
    k = via if via is not None else min(i, j) + 1
    if not (min(i, j) < k < max(i, j)):
        raise IndexOutOfRange("intermediate index must lie strictly between")
    a = composite_E(N, i, k)
    b = composite_E(N, k, j)
    return a * b - b * a
