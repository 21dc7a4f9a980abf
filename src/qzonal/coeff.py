"""Exact coefficient arithmetic.

Two rings and their fraction fields:

* ``Laurent`` -- Laurent polynomials in ``v`` with arbitrary-precision integer
  coefficients, where ``v**2 = q``.  Working in ``v`` keeps every half-integer
  power of ``q`` that shows up in coproduct twists and paired-column weights
  at an integer exponent.
* ``QTPoly`` -- integer polynomials in two commuting formal parameters q, t.
* ``RationalScalar`` and ``QTRational`` -- their fraction fields, used by the
  exact linear algebra and on the symmetric-function side.  Both are
  ``ReducedFraction``: one body of gcd-reduced fraction arithmetic, with the
  ring's gcd, exact division and denominator normalization named per field.

Gcds: ``laurent_gcd`` runs a primitive pseudo-remainder sequence in Z[v].
``qt_gcd`` is the Char-Geddes-Gonnet heuristic (evaluate t at a large
integer, take the gcd in Z[q], lift it back by xi-adic digits), accepted
only when the candidate divides both inputs exactly; otherwise a primitive
pseudo-remainder sequence over (Z[q])[t] decides.

Both rings are ``IntPoly``: one body for the sparse exponent -> integer map
(sum, difference, negation, integer scaling, equality and the signed-term
printer); each ring adds its exponent arithmetic and names its monomials.
Every term map -- ``Combination`` (``qmatrix.QPolynomial``,
``uq_action.UqElement``), echelon rows, restrictions -- maps its keys to
bare ``{v-exponent: int}`` maps, summed by ``_add_scaled``; a ``Laurent`` is
formed only to take a gcd, divide exactly or print.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


# ---------------------------------------------------------------------------
# raw dict helpers (exponent -> coefficient, no zero values stored)
# ---------------------------------------------------------------------------

def _dict_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _dict_mul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        ((ea, ca),) = a.items()
        return {ea + e: ca * c for e, c in b.items()}
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {eb + e: cb * c for e, c in a.items()}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _add_scaled(acc, terms, scale=None):
    """acc += scale * terms in place on {key: {v-exponent: int}} maps,
    dropping keys that cancel; returns acc.

    A coefficient map is never changed once made (_dict_add and _dict_mul
    return new maps), so term maps, memo tables and their inputs share them
    freely.
    """
    for m, c in terms.items():
        if scale is not None:
            c = _dict_mul(scale, c)
        s = acc.get(m)
        if s is not None:
            c = _dict_add(s, c)
            if not c:
                del acc[m]
                continue
        acc[m] = c
    return acc


_ONE = {0: 1}


# ---------------------------------------------------------------------------
# sparse maps with ring-element values (key -> QTRational, no zero values
# stored)
# ---------------------------------------------------------------------------

def add_terms(acc, terms, scale=None):
    """acc += scale * terms in place, dropping entries that cancel; returns acc."""
    for k, c in terms.items():
        if scale is not None:
            c = scale * c
        s = acc.get(k)
        if s is not None:
            c = s + c
        if c.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = c
    return acc


class AmbientMismatch(ValueError):
    """Operands live over different ambient matrix sizes."""


class IntPoly:
    """Sparse polynomial with integer coefficients: ``t`` maps exponents to
    nonzero integers.

    A subclass supplies the product (``__mul__``, which scales by an int
    through ``_times_int``) and ``_var(e)``, the printed monomial of exponent
    ``e`` ("" for the unit).
    """

    __slots__ = ("t",)

    def __init__(self, terms=None):
        # terms is trusted: no zero coefficients
        self.t = terms if terms is not None else {}

    def __add__(self, other):
        return self.__class__(_dict_add(self.t, other.t))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.__class__({e: -c for e, c in self.t.items()})

    def _times_int(self, k):
        return self.__class__({e: c * k for e, c in self.t.items()} if k else {})

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.t == other.t

    def __hash__(self):
        return hash(frozenset(self.t.items()))

    def is_zero(self):
        return not self.t

    def __repr__(self):
        """Signed terms, highest exponent first."""
        out = ""
        for e in sorted(self.t, reverse=True):
            c = self.t[e]
            var = self._var(e)
            if not var:
                term = str(abs(c))
            elif abs(c) == 1:
                term = var
            else:
                term = "%d*%s" % (abs(c), var)
            if out:
                out += (" - " if c < 0 else " + ") + term
            else:
                out = ("-" if c < 0 else "") + term
        return out or "0"


class Laurent(IntPoly):
    """Integer Laurent polynomial in v (v**2 = q)."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def integer(c):
        return Laurent({0: c}) if c else Laurent()

    @staticmethod
    def v_power(k, c=1):
        """c * v**k"""
        return Laurent({k: c}) if c else Laurent()

    @staticmethod
    def q_power(k, c=1):
        """c * q**k == c * v**(2k)"""
        return Laurent({2 * k: c}) if c else Laurent()

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._times_int(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return Laurent(_dict_mul(self.t, other.t))

    __rmul__ = __mul__

    def is_one(self):
        return self.t == {0: 1}

    # -- structure ----------------------------------------------------------

    def min_exp(self):
        return min(self.t) if self.t else 0

    def max_exp(self):
        return max(self.t) if self.t else 0

    def coeffs(self):
        """(min exponent, dense coefficient list low-to-high)."""
        if not self.t:
            return 0, []
        lo, hi = min(self.t), max(self.t)
        return lo, [self.t.get(e, 0) for e in range(lo, hi + 1)]

    def specialize(self, v0):
        """Evaluate at an exact nonzero rational v0."""
        v0 = Fraction(v0)
        if v0 == 0:
            raise ZeroDivisionError("v0 must be nonzero")
        return sum((Fraction(c) * v0 ** e for e, c in self.t.items()), Fraction(0))

    # -- exact division and gcd --------------------------------------------

    def divexact(self, other):
        """Exact quotient self/other; raises ValueError when not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return Laurent()
        lo_n, num = self.coeffs()
        lo_d, den = other.coeffs()
        quo = _zx_divexact(num, den)
        if quo is None:
            raise ValueError("inexact Laurent division")
        shift = lo_n - lo_d
        return Laurent({i + shift: c for i, c in enumerate(quo) if c})

    def unit_normal(self):
        """(unit-normalized polynomial, unit) with min exponent 0 and positive
        leading coefficient; the unit u satisfies self == u * normalized."""
        if self.is_zero():
            return Laurent(), L_ONE
        lo = self.min_exp()
        sgn = 1 if self.t[self.max_exp()] > 0 else -1
        norm = Laurent({e - lo: sgn * c for e, c in self.t.items()})
        return norm, Laurent({lo: sgn})

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.t.items(), reverse=True)}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json: an object of integer strings (or integers);
        a float or any other type is refused rather than truncated."""
        if not isinstance(obj, dict) or any(
                type(x) not in (int, str) for item in obj.items() for x in item):
            raise TypeError(f"coefficient {obj!r} is not an object of integers")
        return Laurent({int(e): int(c) for e, c in obj.items() if int(c)})

    @staticmethod
    def _var(e):
        """v**e, even powers written through q."""
        if e % 2:
            return "v" if e == 1 else "v^%d" % e
        return "" if e == 0 else "q" if e == 2 else "q^%d" % (e // 2)


L_ZERO = Laurent()
L_ONE = Laurent({0: 1})
L_Q = Laurent({2: 1})
L_QINV = Laurent({-2: 1})


class Combination:
    """Finite combination of hashable keys (normal monomials, operator words)
    with {v-exponent: int} coefficients over an ambient matrix size ``N``; no
    zero coefficients are stored.  A subclass supplies the product of keys
    and the printer."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms=None):
        self.N = N
        self.terms = terms if terms is not None else {}

    def _check(self, other):
        if self.N != other.N:
            raise AmbientMismatch(f"ambient sizes {self.N} != {other.N}")

    def __add__(self, other):
        self._check(other)
        return self.__class__(self.N, _add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        self._check(other)
        return self.__class__(self.N, _add_scaled(dict(self.terms), other.terms, {0: -1}))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        """coeff * self for an int or Laurent coeff."""
        coeff = coeff.t if isinstance(coeff, Laurent) else {0: coeff} if coeff else {}
        if not coeff:
            return self.__class__(self.N)
        return self.__class__(self.N, _add_scaled({}, self.terms, coeff))

    __rmul__ = scale

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.N == other.N
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.N, frozenset((k, frozenset(c.items()))
                                       for k, c in self.terms.items())))

    def is_zero(self):
        return not self.terms

    def term_count(self):
        return len(self.terms)


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, index = exponent)
# ---------------------------------------------------------------------------

def _zx_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zx_content(a):
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _zx_primitive(a):
    g = _zx_content(a)
    if g > 1:
        a = [c // g for c in a]
    return a


def _zx_divexact(num, den):
    """Exact division in Z[x]; returns None when not exact."""
    num = list(num)
    dn = len(den)
    if dn == 0:
        return None
    lead = den[-1]
    quo = [0] * max(len(num) - dn + 1, 0)
    for i in range(len(num) - dn, -1, -1):
        c = num[i + dn - 1]
        if c == 0:
            continue
        if c % lead:
            return None
        f = c // lead
        quo[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    if any(num):
        return None
    return quo


def _zx_pseudo_rem(a, b):
    """Pseudo-remainder of a by b (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        c = a[-1]
        a = [x * lead for x in a]
        for j, d in enumerate(b):
            a[da - db + j] -= c * d
        _zx_trim(a)
    return a


def _zx_gcd(a, b):
    """gcd in Z[x] via primitive pseudo-remainder sequence."""
    a = _zx_trim(list(a))
    b = _zx_trim(list(b))
    if not a:
        return [-c for c in b] if b and b[-1] < 0 else b
    if not b:
        return [-c for c in a] if a[-1] < 0 else a
    ca, cb = _zx_content(a), _zx_content(b)
    g = _int_gcd(ca, cb)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    while b:
        r = _zx_pseudo_rem(a, b)
        a, b = b, _zx_primitive(r)
    if a[-1] < 0:
        a = [-c for c in a]
    return [c * g for c in a]


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """gcd up to units, normalized to min exponent 0 and positive lead."""
    if a.is_zero():
        return b.unit_normal()[0]
    if b.is_zero():
        return a.unit_normal()[0]
    _, ca = a.coeffs()
    _, cb = b.coeffs()
    g = _zx_gcd(ca, cb)
    return Laurent({i: c for i, c in enumerate(g) if c})


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------

def q_int(j: int) -> Laurent:
    """[j] = (q**j - q**-j)/(q - q**-1), symmetric convention."""
    if j < 1:
        raise ValueError("q_int needs j >= 1")
    return Laurent({2 * (j - 1 - 2 * i): 1 for i in range(j)})


def q_factorial(k: int) -> Laurent:
    """[k]! = [1][2]...[k], with [0]! = 1."""
    if k < 0:
        raise ValueError("q_factorial needs k >= 0")
    out = L_ONE
    for j in range(2, k + 1):
        out = out * q_int(j)
    return out


# ---------------------------------------------------------------------------
# reduced fractions
# ---------------------------------------------------------------------------

class ReducedFraction:
    """Reduced fraction over a gcd domain, the base of both fraction fields.

    A subclass names its ring (``_ring``, ``_zero``, ``_one``), the ring's
    gcd, its exact division and a denominator normalization that makes equal
    fractions compare equal componentwise.  A denominator of exactly one is
    already reduced and skips the gcd; a ring-element factor or divisor
    enters the numerator or the denominator only.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = self._one
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = self._zero, self._one
            return
        if not _reduced and not den.is_one():
            g = self._gcd(num, den)
            if not g.is_one():
                num = self._divexact(num, g)
                den = self._divexact(den, g)
            num, den = self._normalize(num, den)
        self.num, self.den = num, den

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return self.__class__(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    def __sub__(self, other):
        return self.__class__(self.num * other.den - other.num * self.den,
                              self.den * other.den)

    def __neg__(self):
        return self.__class__(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        if isinstance(other, self._ring):
            return self.__class__(self.num * other, self.den)
        return self.__class__(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if isinstance(other, self._ring):
            return self.__class__(self.num, self.den * other)
        return self.__class__(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


class RationalScalar(ReducedFraction):
    """The fraction field of ``Laurent``; the denominator has min exponent 0
    and a positive leading coefficient."""

    __slots__ = ()
    _ring, _zero, _one = Laurent, L_ZERO, L_ONE
    _gcd = staticmethod(laurent_gcd)
    _divexact = staticmethod(Laurent.divexact)

    @staticmethod
    def _normalize(num, den):
        den, unit = den.unit_normal()
        return num.divexact(unit), den

    @staticmethod
    def one():
        return RationalScalar(L_ONE, L_ONE, _reduced=True)

    @staticmethod
    def zero():
        return RationalScalar(L_ZERO, L_ONE, _reduced=True)


# ---------------------------------------------------------------------------
# the field Q(q, t)
# ---------------------------------------------------------------------------

class QTPoly(IntPoly):
    """Integer polynomial in the commuting parameters q and t.

    Terms map exponent pairs (eq, et) with eq, et >= 0 to nonzero integers.
    """

    __slots__ = ()

    @staticmethod
    def const(c):
        return QTPoly({(0, 0): c}) if c else QTPoly()

    @staticmethod
    def gen_q():
        return QTPoly({(1, 0): 1})

    @staticmethod
    def gen_t():
        return QTPoly({(0, 1): 1})

    @staticmethod
    def monomial(eq, et, c=1):
        return QTPoly({(eq, et): c}) if c else QTPoly()

    def is_one(self):
        return self.t == {(0, 0): 1}

    def __mul__(self, other):
        if isinstance(other, int):
            return self._times_int(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.t.items():
            for (a2, b2), c2 in other.t.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return QTPoly(out)

    __rmul__ = __mul__

    def lead_key(self):
        return max(self.t) if self.t else None

    # view as a polynomial in t with Z[q] coefficients (dense q lists)
    def _t_layers(self):
        layers = {}
        for (eq, et), c in self.t.items():
            layers.setdefault(et, {})[eq] = c
        out = {}
        for et, d in layers.items():
            hi = max(d)
            out[et] = [d.get(i, 0) for i in range(hi + 1)]
        return out

    @staticmethod
    def _from_t_layers(layers):
        t = {}
        for et, coeffs in layers.items():
            for eq, c in enumerate(coeffs):
                if c:
                    t[(eq, et)] = c
        return QTPoly(t)

    def substitute_v(self, a: int, b: int) -> Laurent:
        """Map q -> v**(2a), t -> v**(2b) into the Laurent domain."""
        out = {}
        for (eq, et), c in self.t.items():
            e = 2 * a * eq + 2 * b * et
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return Laurent(out)

    def to_json(self):
        return repr(self)

    @staticmethod
    def _var(e):
        """q**eq * t**et for e = (eq, et)."""
        return "*".join(x if k == 1 else "%s^%d" % (x, k)
                        for x, k in zip("qt", e) if k)


QT_ZERO = QTPoly()
QT_ONE = QTPoly.const(1)


def _qx_pseudo_rem_layers(a, b):
    """Pseudo-remainder in (Z[q])[t]; a, b are {t-exp: q-coeff-list}."""
    a = {k: list(v) for k, v in a.items()}
    db = max(b)
    lead = b[db]
    while a and max(a) >= db:
        da = max(a)
        top = a[da]
        # a := lead * a - top * t**(da-db) * b
        new = {}
        for et, coef in a.items():
            new[et] = _zx_trim([c for c in _zx_mul_list(coef, lead)])
        for et, coef in b.items():
            tgt = et + da - db
            prod = _zx_mul_list(coef, top)
            cur = new.get(tgt, [])
            n = max(len(cur), len(prod))
            cur = cur + [0] * (n - len(cur))
            for i, c in enumerate(prod):
                cur[i] -= c
            new[tgt] = _zx_trim(cur)
        a = {k: v for k, v in new.items() if v}
    return a


def _zx_mul_list(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _zx_trim(out)


def _layers_content(layers):
    """Z[q]-gcd of all t-layer coefficients."""
    g = []
    for coef in layers.values():
        g = _zx_gcd(g, coef)
        if g == [1]:
            break
    return g


def _layers_divexact(layers, d):
    out = {}
    for et, coef in layers.items():
        q = _zx_divexact(coef, d)
        if q is None:
            raise ValueError("inexact layer division")
        out[et] = _zx_trim(q)
    return {k: v for k, v in out.items() if v}


# tries of the heuristic gcd before the pseudo-remainder sequence takes over
_HEU_TRIES = 6


def qt_gcd(A: QTPoly, B: QTPoly) -> QTPoly:
    """gcd in Z[q,t] with a positive leading term, by the heuristic GCDHEU of
    Char, Geddes and Gonnet (J. Symbolic Comput. 7, 1989): evaluate t at an
    integer xi, take the exact gcd in Z[q] and lift its coefficients back to
    polynomials in t by their symmetric xi-adic digits.

    Their theorem: when xi >= 2 min(|A|, |B|) + 2 (max-norms), the primitive
    part G of the lifted gcd is the primitive gcd of A and B if and only if
    G divides both.  G is returned, times the gcd of the integer contents,
    only right after exact division of both inputs by it succeeds (1
    divides everything and skips it), so a rejected candidate never is; a
    rejection grows xi, and after ``_HEU_TRIES`` of them the
    pseudo-remainder sequence decides.
    """
    if A.is_zero():
        return _qt_unit_normal(B)
    if B.is_zero():
        return _qt_unit_normal(A)
    xi = 2 * min(max(map(abs, A.t.values())), max(map(abs, B.t.values()))) + 2
    for _ in range(_HEU_TRIES):
        G = _qt_lift(_zx_gcd(_qt_at_t(A, xi), _qt_at_t(B, xi)), xi)
        c = _zx_content(G.t.values())
        G = QTPoly({e: v // c for e, v in G.t.items()})
        if G.is_one() or (_qt_divides(G, A) and _qt_divides(G, B)):
            g = _int_gcd(_zx_content(A.t.values()), _zx_content(B.t.values()))
            return _qt_unit_normal(G._times_int(g))
        xi = xi * 73794 // 27011
    return _qt_gcd_prs(A, B)


def _qt_at_t(p: QTPoly, xi: int) -> list:
    """p(q, xi) as a dense coefficient list in q."""
    out = [0] * (max(eq for eq, _ in p.t) + 1)
    for (eq, et), c in p.t.items():
        out[eq] += c * xi ** et
    return out


def _qt_lift(gamma: list, xi: int) -> QTPoly:
    """The polynomial in q, t whose q-coefficients have the symmetric xi-adic
    digits (in (-xi/2, xi/2]) of gamma's as their t-coefficients."""
    out = {}
    half = xi // 2
    for eq, c in enumerate(gamma):
        et = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(eq, et)] = d
            c = (c - d) // xi
            et += 1
    return QTPoly(out)


def _qt_divides(G: QTPoly, A: QTPoly) -> bool:
    try:
        qt_divexact(A, G)
    except ValueError:
        return False
    return True


def _qt_gcd_prs(A: QTPoly, B: QTPoly) -> QTPoly:
    """gcd of nonzero A, B in Z[q,t], content-then-univariate over (Z[q])[t]
    by a primitive pseudo-remainder sequence."""
    la, lb = A._t_layers(), B._t_layers()
    ca, cb = _layers_content(la), _layers_content(lb)
    cg = _zx_gcd(ca, cb)
    la = _layers_divexact(la, ca)
    lb = _layers_divexact(lb, cb)
    # primitive PRS in t
    if max(la) < max(lb):
        la, lb = lb, la
    while lb:
        r = _qx_pseudo_rem_layers(la, lb)
        if r:
            rc = _layers_content(r)
            r = _layers_divexact(r, rc)
        la, lb = lb, r
    gp = QTPoly._from_t_layers(la)
    g = gp * QTPoly._from_t_layers({0: cg})
    return _qt_unit_normal(g)


def _qt_unit_normal(p: QTPoly) -> QTPoly:
    if p.is_zero():
        return p
    if p.t[p.lead_key()] < 0:
        return -p
    return p


def qt_divexact(A: QTPoly, B: QTPoly) -> QTPoly:
    """Exact division in Z[q,t] by repeated leading-term cancellation."""
    if B.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if A.is_zero():
        return QTPoly()
    rem = dict(A.t)
    (bq, bt) = B.lead_key()
    blead = B.t[(bq, bt)]
    quo = {}
    while rem:
        (aq, at) = max(rem)
        c = rem[(aq, at)]
        if aq < bq or at < bt or c % blead:
            raise ValueError("inexact Q(q,t) division")
        f = c // blead
        e = (aq - bq, at - bt)
        quo[e] = quo.get(e, 0) + f
        for (q2, t2), c2 in B.t.items():
            key = (e[0] + q2, e[1] + t2)
            s = rem.get(key, 0) - f * c2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return QTPoly(quo)


class QTRational(ReducedFraction):
    """The field Q(q, t) as fractions over Z[q, t]; the denominator has a
    positive leading term."""

    __slots__ = ()
    _ring, _zero, _one = QTPoly, QT_ZERO, QT_ONE
    _gcd = staticmethod(qt_gcd)
    _divexact = staticmethod(qt_divexact)

    @staticmethod
    def _normalize(num, den):
        norm = _qt_unit_normal(den)
        return (num, den) if norm is den else (-num, norm)

    @staticmethod
    def const(c):
        return QTRational(QTPoly.const(c), QT_ONE, _reduced=True)

    @staticmethod
    def from_poly(p: QTPoly):
        return QTRational(p)

    def invert_parameters(self):
        """The substitution q -> 1/q, t -> 1/t."""
        exps = list(self.num.t) + list(self.den.t)
        mq = max(e for (e, _) in exps)
        mt = max(e for (_, e) in exps)
        return QTRational(_qt_flip(self.num, mq, mt), _qt_flip(self.den, mq, mt))

    def substitute_v(self, a: int, b: int) -> RationalScalar:
        """Map q -> v**(2a), t -> v**(2b)."""
        return RationalScalar(self.num.substitute_v(a, b),
                              self.den.substitute_v(a, b))


def _qt_flip(p: QTPoly, mq: int, mt: int) -> QTPoly:
    """q -> 1/q, t -> 1/t cleared by the shared monomial q^mq * t^mt."""
    return QTPoly({(mq - eq, mt - et): c for (eq, et), c in p.t.items()})


QTR_ONE = QTRational.const(1)
QTR_ZERO = QTRational.const(0)
