"""Exact arithmetic in the affine Hecke algebra of the triangle tiling.

Coefficients lie in the real quadratic field Q(sqrt(q)) for a fixed
rational q > 1, each stored as one canonical integer triple
(A + B*sqrt(q))/D (D > 0, gcd(A, B, D) = 1) and read as the Fractions
a = A/D, b = B/D; they become complex doubles only for evaluation at torus
points.  The trace table alone keeps un-normalized pairs (A, B) over one
fixed denominator, and builds canonical scalars only on lookup.

Two bases share one element type:

* the standard basis T_w indexed by affine group elements, with the
  quadratic relation T_i^2 = 1 + (q^(1/2) - q^(-1/2)) T_i, and
* the Bernstein basis x^mu T_u indexed by (lattice vector, finite part),
  multiplied through the Bernstein commutation relation with the quotient
  expanded as an explicit finite geometric sum.

The conversion T -> X is done by straightening against the Bernstein
relation; X -> T replays the unfolded gallery of t_mu with exact crossing
signs.  The two directions are mutually inverse and are cross-checked in
the tests against an independent folded-gallery expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add

import numpy as np

from . import weyl
from .weyl import (
    IDENTITY,
    AffineElement,
    POS_ROOTS,
    SIMPLE_ROOTS,
    W0_WORDS,
    is_ascent,
    pairing,
    reduced_word,
    right_mul_gen,
    w0_apply,
    w0_length,
    w0_mult,
    w0_inv,
)

__all__ = [
    "QSqrt", "ScalarField",
    "HeckeElement", "t_element", "x_element", "unit",
    "rmul_gen", "mul", "trace", "star", "finite_inverse",
    "bernstein_mul", "t_to_x", "x_monomial_t_expansion", "x_to_t",
    "w0_poincare", "symmetrizer_one", "intertwiner_tau", "tau_element",
    "macdonald_p", "d_at", "n_at", "f_value",
    "orbit_characters", "TraceTable", "check_thickness",
]


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------


class QSqrt:
    """(A + B*sqrt(q)) / D with Python ints A, B, D, kept canonical: D > 0,
    gcd(A, B, D) = 1, and B = 0 when q is the square of a rational.  The
    canonical form is unique, so equality and hashing compare the triple.
    Created through a ScalarField (make) or by _norm from another scalar;
    the rational parts a = A/D and b = B/D are read as Fractions."""

    __slots__ = ("_a", "_b", "_d", "field")

    def __init__(self, a: int, b: int, d: int, field):
        self._a = a
        self._b = b
        self._d = d
        self.field = field

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.field.q}))"

    def __eq__(self, other):
        if isinstance(other, QSqrt):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other * self._d
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.make(other)
        return None

    def __add__(self, other):
        o = other if isinstance(other, QSqrt) else self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _norm(self._a + o._a, self._b + o._b, d1, self.field)
        return _norm(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2,
                     self.field)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt(-self._a, -self._b, self._d, self.field)

    def __sub__(self, other):
        o = other if isinstance(other, QSqrt) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = other if isinstance(other, QSqrt) else self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        a1, b1, a2, b2, qd = self._a, self._b, o._a, o._b, field.qd
        return _norm(a1 * a2 * qd + b1 * b2 * field.qn, (a1 * b2 + b1 * a2) * qd,
                     self._d * o._d * qd, field)

    __rmul__ = __mul__

    def inv(self):
        # D / (A + B sqrt q) = D qd (A - B sqrt q) / (A^2 qd - B^2 qn)
        field = self.field
        a, b, qd = self._a, self._b, field.qd
        nrm = a * a * qd - b * b * field.qn
        if nrm == 0:
            raise ZeroDivisionError("scalar is zero")
        d = self._d * qd if nrm > 0 else -self._d * qd
        return _norm(a * d, -b * d, abs(nrm), field)

    def __truediv__(self, other):
        o = other if isinstance(other, QSqrt) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __complex__(self):
        return complex(float(self))

    def __float__(self):
        # float(a) + float(b) * sqrt(q), each quotient correctly rounded
        return self._a / self._d + self._b / self._d * self.field.sqrt_q_float


def _norm(a: int, b: int, d: int, field) -> QSqrt:
    """The canonical QSqrt of (a + b*sqrt(q)) / d, for d > 0 (and b = 0 when
    q is a rational square)."""
    g = gcd(a, b, d)
    if g == 1:
        return QSqrt(a, b, d, field)
    return QSqrt(a // g, b // g, d // g, field)


def check_thickness(q):
    """q itself, if it is a thickness (q > 1); raises ValueError otherwise."""
    if q <= 1:
        raise ValueError("thickness q must exceed 1")
    return q


class ScalarField:
    """Exact coefficient field Q(sqrt(q)) for a fixed rational q > 1, with
    the per-field memo tables of the base changes."""

    def __init__(self, q):
        self.q = check_thickness(Fraction(q))
        self.sqrt_q_float = float(self.q) ** 0.5
        self._tx_cache = {}
        self._xw_cache = {}
        self._fin_inv_cache = {}
        self._fin_t0_cache = {}
        self.qn, self.qd = self.q.numerator, self.q.denominator
        # sqrt(q) as a Fraction if q is the square of a rational, else None
        rn, rd = isqrt(self.qn), isqrt(self.qd)
        square = rn * rn == self.qn and rd * rd == self.qd
        self.rational_root = Fraction(rn, rd) if square else None
        self.zero = self.make(0)
        self.one = self.make(1)
        self.sqrt_q = self.make(0, 1)
        self.inv_sqrt_q = self.make(0, 1 / self.q)
        # the coefficient q^(1/2) - q^(-1/2) from the quadratic relation
        self.quad = self.sqrt_q - self.inv_sqrt_q

    def make(self, a, b=0):
        a, b = Fraction(a), Fraction(b)
        if b and self.rational_root is not None:
            a, b = a + b * self.rational_root, Fraction(0)
        d = lcm(a.denominator, b.denominator)
        return _norm(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator),
                     d, self)

    def half_pow(self, k: int):
        """q^(k/2) as an exact scalar, any integer k."""
        if k % 2 == 0:
            return self.make(self.q ** (k // 2))
        return self.make(0, self.q ** ((k - 1) // 2))


# ---------------------------------------------------------------------------
# Elements.
# ---------------------------------------------------------------------------


@dataclass
class HeckeElement:
    """Finitely supported coefficient map in either basis.

    basis 'T': keys are AffineElement.
    basis 'X': keys are ((m, n), u) for x^mu T_u.
    """

    basis: str
    terms: dict
    field: object

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.basis == other.basis
            and self.field.q == other.field.q
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("cannot add elements in different bases")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return HeckeElement(self.basis, out, self.field)

    def scaled(self, c):
        if not c:
            return HeckeElement(self.basis, {}, self.field)
        return HeckeElement(
            self.basis, {k: v * c for k, v in self.terms.items()}, self.field
        )

    def coeff(self, key):
        return self.terms.get(key, self.field.zero)


def _acc(terms: dict, key, c):
    cur = terms.get(key)
    new = c if cur is None else cur + c
    if not new:
        terms.pop(key, None)
    else:
        terms[key] = new


def unit(field, basis="T") -> HeckeElement:
    key = IDENTITY if basis == "T" else ((0, 0), 0)
    return HeckeElement(basis, {key: field.one}, field)


def t_element(field, pairs) -> HeckeElement:
    terms = {}
    for w, c in pairs:
        _acc(terms, w, c)
    return HeckeElement("T", terms, field)


def x_element(field, pairs) -> HeckeElement:
    terms = {}
    for (mu, u), c in pairs:
        _acc(terms, ((mu[0], mu[1]), u), c)
    return HeckeElement("X", terms, field)


# ---------------------------------------------------------------------------
# T-basis arithmetic.
# ---------------------------------------------------------------------------


def rmul_gen(h: HeckeElement, i: int, inverse: bool = False) -> HeckeElement:
    """h * T_i (or h * T_i^(-1), using T_i^(-1) = T_i - quad)."""
    field = h.field
    quad = field.quad
    out = {}
    for w, c in h.terms.items():
        ws = right_mul_gen(w, i)
        if is_ascent(w, i):
            _acc(out, ws, c)
            if inverse:
                _acc(out, w, -(c * quad))
        else:
            _acc(out, ws, c)
            if not inverse:
                _acc(out, w, c * quad)
    return HeckeElement("T", out, field)


def mul(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """Product in the T-basis: the right factor is expanded one generator at
    a time along its reduced words."""
    if h1.basis != "T" or h2.basis != "T":
        raise ValueError("mul expects both factors in the T-basis")
    out = {}
    for w, c in h2.terms.items():
        h = h1
        for i in reduced_word(w):
            h = rmul_gen(h, i)
        for k, v in h.terms.items():
            _acc(out, k, v * c)
    return HeckeElement("T", out, h1.field)


def trace(h: HeckeElement):
    """Coefficient of the identity (the canonical trace on the T-basis)."""
    if h.basis != "T":
        raise ValueError("trace expects the T-basis; convert with x_to_t")
    return h.coeff(IDENTITY)


def star(h: HeckeElement) -> HeckeElement:
    """The involution (sum c_w T_w)^* = sum c_w T_{w^-1}; the coefficients
    are real, so conjugation fixes them."""
    if h.basis != "T":
        raise ValueError("star expects the T-basis")
    return HeckeElement("T", {weyl.inverse(w): c for w, c in h.terms.items()}, h.field)


# ---------------------------------------------------------------------------
# Finite subalgebra (span of T_u, u in W0) helpers.
# ---------------------------------------------------------------------------


def finite_inverse(field, u: int) -> dict:
    """Expansion of (T_u)^(-1) over the finite T-basis, as dict u' -> coeff."""
    cached = field._fin_inv_cache.get(u)
    if cached is None:
        h = unit(field)
        for j in reversed(W0_WORDS[u]):
            h = rmul_gen(h, j, inverse=True)
        field._fin_inv_cache[u] = cached = {w.u: c for w, c in h.terms.items()}
    return cached


# ---------------------------------------------------------------------------
# Bernstein basis arithmetic.
# ---------------------------------------------------------------------------

# The simple coroot a_i^vee is SIMPLE_ROOTS[i - 1]: the root system is simply
# laced, and a_i and a_i^vee share coordinates (see weyl.w0_apply).
def _geometric_terms(mu, i):
    """(x^mu - x^{s_i mu}) / (1 - x^(-a_i^vee)) as a signed monomial list.

    For k = <mu, a_i> the sum is x^(mu - j a_i^vee), j = 0..k-1 when k > 0,
    and -x^(mu + j a_i^vee), j = 1..-k when k < 0; empty when k = 0.
    """
    av = SIMPLE_ROOTS[i - 1]
    k = pairing(mu, av)
    if k > 0:
        return [((mu[0] - j * av[0], mu[1] - j * av[1]), 1) for j in range(k)]
    return [((mu[0] + j * av[0], mu[1] + j * av[1]), -1) for j in range(1, -k + 1)]


def _left_mul_gen_x(terms: dict, i: int, field) -> dict:
    """T_i * (sum over x^mu T_z terms), i in {1, 2}."""
    quad = field.quad
    out = {}
    for (mu, z), c in terms.items():
        smu = w0_apply(i, mu)
        sz = w0_mult(i, z)
        _acc(out, (smu, sz), c)
        if w0_length(sz) < w0_length(z):
            _acc(out, (smu, z), c * quad)
        for e, sign in _geometric_terms(mu, i):
            _acc(out, (e, z), c * quad if sign > 0 else -(c * quad))
    return out


def _rmul_fin_gen_x(terms: dict, j: int, field, inverse: bool = False) -> dict:
    """(sum over x^mu T_z terms) * T_j, or * T_j^(-1) = T_j - quad, j in {1, 2}."""
    quad = field.quad
    out = {}
    for (mu, z), c in terms.items():
        zs = w0_mult(z, j)
        _acc(out, (mu, zs), c)
        if w0_length(zs) < w0_length(z):
            if not inverse:
                _acc(out, (mu, z), c * quad)
        elif inverse:
            _acc(out, (mu, z), -(c * quad))
    return out


def _tu_times(field, u: int, terms: dict) -> dict:
    """T_u * (sum over x^mu T_z terms): the Bernstein relation applied for
    each letter of the reduced word of u, last letter first."""
    for i in reversed(W0_WORDS[u]):
        terms = _left_mul_gen_x(terms, i, field)
    return terms


def bernstein_mul(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """Product in the Bernstein basis, grouped: h1 = sum over u of
    (sum c x^mu) T_u.  T_u h2 is formed once per u (``_tu_times``), and
    each x^mu of u shifts it."""
    if h1.basis != "X" or h2.basis != "X":
        raise ValueError("bernstein_mul expects both factors in the X-basis")
    field = h1.field
    left = {}
    for (mu, u), c in h1.terms.items():
        left.setdefault(u, []).append((mu, c))
    out = {}
    for u, lattice_part in left.items():
        mid = _tu_times(field, u, h2.terms)
        for mu, c1 in lattice_part:
            for (gamma, z), cm in mid.items():
                _acc(out, ((gamma[0] + mu[0], gamma[1] + mu[1]), z), c1 * cm)
    return HeckeElement("X", out, field)


# ---------------------------------------------------------------------------
# Basis conversion.
# ---------------------------------------------------------------------------


def _finite_times_t0(field, u: int) -> dict:
    """T_u T_0 in the Bernstein basis, cached per field.  The affine
    generator T_0 equals the gallery element x_{s0} = x^(phi^vee)
    (T_{s_phi})^(-1), because the single step of its unfolded gallery is a
    positive crossing; s_phi = s_1 s_2 s_1 reads the same backwards, so
    T_u T_0 is T_u x^(phi^vee) times T_1^(-1) T_2^(-1) T_1^(-1)."""
    cached = field._fin_t0_cache.get(u)
    if cached is None:
        cached = _tu_times(field, u, {(weyl.PHI_VEE, 0): field.one})
        for j in W0_WORDS[weyl.W0_LONGEST]:
            cached = _rmul_fin_gen_x(cached, j, field, inverse=True)
        field._fin_t0_cache[u] = cached
    return cached


def _t_word_to_x(field, w: AffineElement) -> HeckeElement:
    """T_w in the Bernstein basis, cached per field with every prefix of the
    reduced word of w (the prefixes of that word are the reduced words of
    the prefix elements).  From the longest cached prefix v, the loop takes
    T_(v s_i) = T_v T_i letter by letter: each term x^mu T_u of T_v becomes
    x^mu (T_u T_i), where a finite generator multiplies the finite part
    alone and T_u T_0 comes from _finite_times_t0."""
    cache = field._tx_cache
    cached = cache.get(w)
    if cached is not None:
        return cached
    word = reduced_word(w)
    chain = [IDENTITY]
    for i in word:
        chain.append(right_mul_gen(chain[-1], i))
    k = len(word)
    while k and chain[k] not in cache:
        k -= 1
    if k == 0 and IDENTITY not in cache:
        cache[IDENTITY] = unit(field, "X")
    h = cache[chain[k]]
    for v, i in zip(chain[k + 1:], word[k:]):
        if i:
            terms = _rmul_fin_gen_x(h.terms, i, field)
        else:
            terms = {}
            for (mu, u), c in h.terms.items():
                for (gamma, z), cm in _finite_times_t0(field, u).items():
                    _acc(terms, ((gamma[0] + mu[0], gamma[1] + mu[1]), z), c * cm)
        h = cache[v] = HeckeElement("X", terms, field)
    return h


def t_to_x(h: HeckeElement) -> HeckeElement:
    """Rewrite a T-basis element in the Bernstein basis by straightening."""
    if h.basis != "T":
        raise ValueError("t_to_x expects the T-basis")
    field = h.field
    out = {}
    for w, c in h.terms.items():
        for k, v in _t_word_to_x(field, w).terms.items():
            _acc(out, k, v * c)
    return HeckeElement("X", out, field)


def x_monomial_t_expansion(field, mu) -> HeckeElement:
    """x^mu in the T-basis: replay the unfolded gallery of t_mu, taking each
    generator with the exponent given by its exact crossing sign."""
    mu = (mu[0], mu[1])
    cached = field._xw_cache.get(mu)
    if cached is None:
        h = unit(field, "T")
        cur = IDENTITY
        for i in reduced_word(weyl.translation(mu)):
            _, sign = weyl.crossing_data(cur, i)
            h = rmul_gen(h, i, inverse=(sign < 0))
            cur = right_mul_gen(cur, i)
        field._xw_cache[mu] = cached = h
    return cached


# each element of W0 before its last generator: W0_WORDS is ordered by
# length and holds the prefix of each of its words
_WORD_HEAD = tuple(weyl.w0_from_word(word[:-1]) for word in W0_WORDS)


def x_to_t(h: HeckeElement) -> HeckeElement:
    """Rewrite a Bernstein-basis element in the T-basis.  The terms of one
    x^mu share their prefixes: x^mu T_u is x^mu T_u' T_j for the prefix u'
    of the reduced word of u = u' s_j, formed once per (mu, u')."""
    if h.basis != "X":
        raise ValueError("x_to_t expects the X-basis")
    field = h.field
    pieces = {}

    def piece(mu, u):
        got = pieces.get((mu, u))
        if got is None:
            word = W0_WORDS[u]
            got = (rmul_gen(piece(mu, _WORD_HEAD[u]), word[-1]) if word
                   else x_monomial_t_expansion(field, mu))
            pieces[mu, u] = got
        return got

    out = {}
    for (mu, u), c in h.terms.items():
        for k, v in piece(mu, u).terms.items():
            _acc(out, k, v * c)
    return HeckeElement("T", out, field)


# ---------------------------------------------------------------------------
# Symmetrizer, intertwiners, spherical functions.
# ---------------------------------------------------------------------------


def w0_poincare(field):
    """W0(q) = sum over the finite group of q^length = 1 + 2q + 2q^2 + q^3."""
    return field.make(1 + 2 * field.q + 2 * field.q ** 2 + field.q ** 3)


def symmetrizer_one(field) -> HeckeElement:
    """The idempotent (1/W0(q)) sum of q_u^(1/2) T_u over the finite group."""
    inv = field.one / w0_poincare(field)
    return t_element(
        field,
        [
            (weyl.finite(u), field.half_pow(w0_length(u)) * inv)
            for u in range(6)
        ],
    )


def intertwiner_tau(field, i: int) -> HeckeElement:
    """tau_i = (1 - x^(-a_i^vee)) T_i - (q^(1/2) - q^(-1/2)), in the X-basis."""
    av = SIMPLE_ROOTS[i - 1]
    return x_element(
        field,
        [
            (((0, 0), i), field.one),
            (((-av[0], -av[1]), i), -field.one),
            (((0, 0), 0), -field.quad),
        ],
    )


def tau_element(field, u: int) -> HeckeElement:
    """tau_u = product of tau_i along a reduced word of u (X-basis)."""
    out = unit(field, "X")
    for i in W0_WORDS[u]:
        out = bernstein_mul(out, intertwiner_tau(field, i))
    return out


def _coroot_product(field, s) -> dict:
    """prod over positive coroots of (1 - s x^(-a^vee)), as exponent->coeff."""
    poly = {(0, 0): field.one}
    for a, b in POS_ROOTS:
        out = {}
        for e, c in poly.items():
            _acc(out, e, c)
            _acc(out, (e[0] - a, e[1] - b), -(c * s))
        poly = out
    return poly


def _divide_binomial(f: dict, a) -> dict:
    """The g with g (1 - x^(-a)) = f, for a positive coroot a: the suffix sum
    g(e) = sum over j >= 0 of f(e + j a).  Raises ArithmeticError where f does
    not sum to 0 along a line e + Z a, that is where the remainder is nonzero."""
    k = 0 if a[0] else 1  # a[k] = 1: e[k] steps by one along the line
    lines = {}
    for e, c in f.items():
        lines.setdefault((e[0] - e[k] * a[0], e[1] - e[k] * a[1]), {})[e[k]] = c
    g = {}
    for (b0, b1), line in lines.items():
        total = 0
        for j in range(max(line), min(line) - 1, -1):
            if j in line:
                total = total + line[j]
            if total:
                g[(b0 + j * a[0], b1 + j * a[1])] = total
        if total:
            raise ArithmeticError("spherical-function division leaves a remainder")
    return g


def macdonald_p(field, mu) -> HeckeElement:
    """Symmetric spherical polynomial P_mu(x) as an X-basis element.

    Computed exactly by clearing the common denominator: with rho the
    half-sum of positive coroots,

        P_mu = (q_w0 / W0(q)) * N / D,
        N = sum_u (-1)^l(u) u( x^(mu+rho) n(x) ),   D = sum_u (-1)^l(u) x^(u rho),

    and D = x^rho prod over positive coroots of (1 - x^(-a^vee)), so N / D is
    N divided by each binomial in turn (_divide_binomial, exact in the Laurent
    ring: a nonzero remainder raises), shifted by -rho.
    """
    rho = weyl.RHO_VEE
    # x^(mu+rho) n(x), n(x) = prod over positive coroots of (1 - q^(-1) x^(-a^vee))
    n_shift = {(e[0] + mu[0] + rho[0], e[1] + mu[1] + rho[1]): c
               for e, c in _coroot_product(field, field.half_pow(-2)).items()}
    num = {}
    for u in range(6):
        sgn = -1 if w0_length(u) % 2 else 1
        for e, c in n_shift.items():
            _acc(num, w0_apply(u, e), c if sgn > 0 else -c)
    for a in POS_ROOTS:
        num = _divide_binomial(num, a)
    scale = field.half_pow(6) * (field.one / w0_poincare(field))
    return HeckeElement("X", {((e[0] - rho[0], e[1] - rho[1]), 0): c * scale
                              for e, c in num.items()}, field)


# ---------------------------------------------------------------------------
# Localized intertwiner-basis evaluation (numeric).
# ---------------------------------------------------------------------------


def _power(z, k: int) -> complex:
    """z^k; a negative power is taken as a power of conj(z)/|z|^2, which is
    1/z at every z != 0.  Formed so, at a point of the unit torus the six
    characters of orbit_characters pair off exactly: each equals another
    with its coordinates conjugated and swapped, to the last bit.  A
    division breaks that by a rounding, which near a wall moved one f_value
    term by 5.8e-5 (see the decisions ledger)."""
    if k >= 0:
        return z ** k
    return (z.conjugate() / (z.real * z.real + z.imag * z.imag)) ** -k


def _char_pow(t, e) -> complex:
    return _power(t[0], e[0]) * _power(t[1], e[1])


def _w0_on_character(u: int, t):
    """The character w.t with (w.t)^mu = t^(w^-1 mu)."""
    ui = w0_inv(u)
    e1 = w0_apply(ui, (1, 0))
    e2 = w0_apply(ui, (0, 1))
    return (_char_pow(t, e1), _char_pow(t, e2))


def d_at(q: float, t) -> complex:
    # n_at at q = 1, bit for bit: dividing by 1.0 is exact
    return n_at(1.0, t)


def n_at(q: float, t) -> complex:
    out = 1.0 + 0j
    for a, b in POS_ROOTS:
        out *= 1 - (t[0] ** (-a) * t[1] ** (-b)) / q
    return out


# The localized module at a character t has the basis tau_z (z in W0), and
# x^e acts on tau_z by t^(z^-1 e).  For i in {1, 2} and each z, _GEN_STEPS[i][z]
# holds s_i z, whether s_i z is longer than z, and the root z^-1(-a_i^vee)
# whose character T_i reads on tau_z (on tau_(s_i z) it reads its negative).
_GEN_STEPS = {
    i: tuple((w0_mult(i, z), w0_length(w0_mult(i, z)) > w0_length(z),
              w0_apply(w0_inv(z), (-av[0], -av[1]))) for z in range(6))
    for i, av in zip((1, 2), SIMPLE_ROOTS)
}
# each element of W0 after its first generator, W0_WORDS being ordered by length
_WORD_TAIL = tuple(weyl.w0_from_word(word[1:]) for word in W0_WORDS)


def _module_columns(q: float, t):
    """The six columns T_u tau_e (u in W0) of the localized module at t, as
    cols[u][z].  With y = t^(z^-1(-a_i^vee)),

        T_i tau_z = a tau_(s_i z) + quad/(1 - y) tau_z,

    a = 1/(1 - 1/y) when s_i z > z and a = q (1 - 1/(q y))(1 - y/q)/(1 - 1/y)
    when s_i z < z.  The two generator matrices are built once from the
    characters of the six roots, and each column is one generator applied
    to the column of a shorter element."""
    sq = q ** 0.5
    quad = sq - 1 / sq
    char = {e: _char_pow(t, e) for a, b in POS_ROOTS for e in ((a, b), (-a, -b))}
    gens = {}
    for i, steps in _GEN_STEPS.items():
        gens[i] = []
        for sz, up, e in steps:
            y, y_inv = char[e], char[-e[0], -e[1]]
            pole = 1 - y_inv
            a = 1 / pole if up else q * (1 - y_inv / q) * (1 - y / q) / pole
            gens[i].append((sz, a, quad / (1 - y)))
    cols = [[1, 0, 0, 0, 0, 0]]
    for u in range(1, 6):
        step = gens[W0_WORDS[u][0]]
        col = [0] * 6
        for z, c in enumerate(cols[_WORD_TAIL[u]]):
            if c:
                sz, across, diagonal = step[z]
                col[sz] += c * across
                col[z] += c * diagonal
        cols.append(col)
    return cols


# |d(t)| below which a character counts as singular
_SINGULAR_TOL = 1e-10


def _localized_terms(h: HeckeElement, t):
    """q and the numeric X-basis terms of h, after rejecting characters near
    the singular set d(t) = 0."""
    q = float(h.field.q)
    if abs(d_at(q, t)) < _SINGULAR_TOL:
        raise ValueError(
            "character too close to the singular set d(t)=0; evaluate at a "
            "perturbed point"
        )
    hx = t_to_x(h) if h.basis == "T" else h
    return q, [(key, complex(c)) for key, c in hx.terms.items()]


def _module_component(terms, q: float, t, z: int) -> complex:
    """Component z of h tau_e in the localized module at t, from the numeric
    X-basis terms c x^mu T_u of h: the sum of c (T_u tau_e)_z t^(z^-1 mu)."""
    cols = _module_columns(q, t)
    zi = w0_inv(z)
    return sum(c * cols[u][z] * _char_pow(t, w0_apply(zi, mu)) for (mu, u), c in terms)


def f_value(h: HeckeElement, t) -> complex:
    """The normalized trace-generating-function coefficient f_t(h): the
    identity component of h in the localized intertwiner basis."""
    q, terms = _localized_terms(h, t)
    return complex(_module_component(terms, q, t, 0))


def orbit_characters(t):
    """The six characters w.t in the finite-group orbit of t."""
    return [_w0_on_character(u, t) for u in range(6)]


# ---------------------------------------------------------------------------
# Exact trace table for the generating-function series.
# ---------------------------------------------------------------------------


# the largest trace-table radius: T0 T0 at the deepest series (depth 128 of
# plancherel.f_series) needs 257, and radius 260 took 0.8 s and 146 MB max
# RSS at q = 2, 1.0 s and 212 MB at q = 5/2; radius 600 took 8.2 s and 914 MB
_MAX_RADIUS = 260


class TraceTable:
    """Exact traces tau(mu, u) = Tr(x^mu T_u) over a W0-stable hexagon
    |<mu, a>| <= K (a the positive roots), by the Bernstein trace recursion.

    On the dominant cone x^mu = T_(t_mu), so tau(mu, .) is the unit row at
    mu = 0 and zero elsewhere.  For nu with <nu, a_i> = -k < 0 and
    mu = s_i nu = nu + k a_i^vee, the trace property Tr(x^mu T_u T_i) =
    Tr(T_i x^mu T_u) and the Bernstein relation give

        Tr(x^nu T_i T_u) = Tr(x^mu T_u T_i)
                           - quad * sum_(j=1..k) tau(nu + j a_i^vee, u),

    and T_i T_u = T_(s_i u) (+ quad T_u when s_i u < u) turns that into
    tau(nu, .).  Every point used lies higher than nu (height m + n) and in
    the hexagon, so one sweep by decreasing height, with suffix sums along
    both simple coroots for the segment sums, fills the table.

    Exact integers at one scale.  With q = a/b in lowest terms and
    r = sqrt(ab), quad = q^(1/2) - q^(-1/2) = (a - b)/r.  Every tau(nu, u)
    is an integer polynomial in quad of degree at most 2 (K - height(nu)):
    dominant rows have degree 0, and a row reads only rows at least one
    step higher and adds at most two factors of quad.  Heights lie in
    [-K, K], so with S = (ab)^(2K) every entry is (A + B r)/S for Python
    ints A and B, and the sweep runs on those pairs: quad (A + B r) =
    (a - b) B + ((a - b) A/(ab)) r, the division exact because the operand
    has degree at most 4K - 1 (a nonzero remainder raises ArithmeticError).
    Each row is kept as its A row and its B row; the canonical scalars are
    built on lookup, and the floats once per build.
    """

    def __init__(self, q):
        self.field = ScalarField(q)
        self._radius = -1
        self._scale = 1
        self._rows = {}
        self._floats = None

    def ensure_box(self, m_range, n_range):
        """Tabulate traces for all mu in the given inclusive ranges.

        The table covers the hexagon of the largest |<mu, a>| at a corner of
        the box.  A box inside the current hexagon costs nothing; a larger
        one rebuilds the table.  Raises ValueError, leaving the table as it
        was, if the hexagon's radius exceeds _MAX_RADIUS.
        """
        radius = _box_radius(m_range, n_range)
        if radius <= self._radius:
            return
        if radius > _MAX_RADIUS:
            raise ValueError(f"trace table radius {radius} exceeds the limit of {_MAX_RADIUS}")
        field = self.field
        self._scale = (field.qn * field.qd) ** (2 * radius)
        tau = {}
        sums = ({}, {})     # suffix sums of tau along a_1^vee and a_2^vee
        for height in range(radius, -radius - 1, -1):
            # the m with |<nu, a_1>| = |3m - height| <= radius and
            # |<nu, a_2>| = |2 height - 3m| <= radius
            lo = -((radius - max(height, 2 * height)) // 3)
            hi = (radius + min(height, 2 * height)) // 3
            for m in range(lo, hi + 1):
                self._step((m, height - m), tau, sums)
        self._rows = tau
        self._radius = radius
        self._floats = self._float_grid()

    def _step(self, nu, tau, sums):
        """Tabulate tau(nu, .) from the points above nu, and extend the
        suffix sums to nu."""
        i = next((i for i in (1, 2) if pairing(nu, SIMPLE_ROOTS[i - 1]) < 0), None)
        if i is None:
            row = ((self._scale,) + _ZEROS[1:], _ZEROS) if nu == (0, 0) else (_ZEROS, _ZEROS)
        else:
            av = SIMPLE_ROOTS[i - 1]
            k = -pairing(nu, av)
            field = self.field
            diff, ab = field.qn - field.qd, field.qn * field.qd
            top_a, top_b = tau[_shift(nu, av, k)]       # tau(s_i nu, .)
            # near - far is the sum of tau over nu + j a_i^vee, j = 1..k
            near_a, near_b = sums[i - 1][_shift(nu, av, 1)]
            far_a, far_b = sums[i - 1].get(_shift(nu, av, k + 1), (_ZEROS, _ZEROS))
            b_a, b_b = [], []
            for u, us, down in _STEP_UP[i]:
                # b[u] = Tr(x^nu T_i T_u) = top[us] + quad (far - near [+ top])[u]
                xa, xb = far_a[u] - near_a[u], far_b[u] - near_b[u]
                if down:
                    xa, xb = xa + top_a[u], xb + top_b[u]
                xa, xb = _times_quad(xa, xb, diff, ab)
                b_a.append(top_a[us] + xa)
                b_b.append(top_b[us] + xb)
            row_a, row_b = [0] * 6, [0] * 6
            for u, v, up in _STEP_ROW[i]:
                if up:
                    row_a[v], row_b[v] = b_a[u], b_b[u]
                else:
                    # b[u] - quad b[v]
                    xa, xb = _times_quad(b_a[v], b_b[v], diff, ab)
                    row_a[v], row_b[v] = b_a[u] - xa, b_b[u] - xb
            row = (tuple(row_a), tuple(row_b))
        tau[nu] = row
        for s, av in zip(sums, SIMPLE_ROOTS):
            above = s.get(_shift(nu, av, 1))
            s[nu] = row if above is None else (
                tuple(map(add, row[0], above[0])), tuple(map(add, row[1], above[1])))

    def _numerators(self, row):
        """The six (a, b) with tau = (a + b sqrt(q))/S, b = 0 when q is a
        rational square."""
        field = self.field
        if field.rational_root is None:
            qd = field.qd
            return [(a, b * qd) for a, b in zip(*row)]
        root = isqrt(field.qn * field.qd)
        return [(a + b * root, 0) for a, b in zip(*row)]

    def _float_grid(self):
        """float(tau(mu, u)) at [m + K, n + K, u], zero outside the hexagon:
        a/S + (b/S) sqrt(q) is float() of the canonical scalar, since the
        integer quotients are correctly rounded and equal as rationals."""
        radius, scale, root = self._radius, self._scale, self.field.sqrt_q_float
        grid = np.zeros((2 * radius + 1, 2 * radius + 1, 6))
        for (m, n), row in self._rows.items():
            if any(row[0]) or any(row[1]):
                grid[m + radius, n + radius] = [
                    a / scale + b / scale * root for a, b in self._numerators(row)]
        grid.setflags(write=False)
        return grid

    def trace_row(self, mu):
        """The exact traces Tr(x^mu T_u) for the six finite elements."""
        row = self._rows.get((mu[0], mu[1]))
        if row is None:
            raise KeyError(f"trace table does not cover {mu}; call ensure_box")
        return tuple(_norm(a, b, self._scale, self.field) for a, b in self._numerators(row))

    def float_box(self, m_range, n_range):
        """float(Tr(x^mu T_u)) at [m - m_lo, n - n_lo, u] for mu in the
        inclusive box m_lo <= m <= m_hi, n_lo <= n <= n_hi, as a read-only
        view; the box must lie in the table's hexagon."""
        (m_lo, m_hi), (n_lo, n_hi) = m_range, n_range
        if _box_radius(m_range, n_range) > self._radius:
            raise KeyError(f"trace table does not cover the box {m_range} x {n_range}")
        k = self._radius
        return self._floats[m_lo + k:m_hi + k + 1, n_lo + k:n_hi + k + 1]


def _box_radius(m_range, n_range) -> int:
    """The largest |<mu, a>| over the positive roots a at a corner of the box."""
    return max(abs(pairing((m, n), a)) for m in m_range for n in n_range for a in POS_ROOTS)


def _times_quad(a: int, b: int, diff: int, ab: int) -> tuple:
    """quad (a + b r) = diff b + (diff a / ab) r as a pair, for
    quad = diff / r and r^2 = ab; raises ArithmeticError unless ab divides a,
    which the table's scale guarantees."""
    whole, rest = divmod(a, ab)
    if rest:
        raise ArithmeticError("a trace table entry exceeds the table's scale")
    return diff * b, diff * whole


_ZEROS = (0,) * 6
# per simple reflection i and finite element u: (u, u s_i, l(u s_i) < l(u)),
# the terms of Tr(x^nu T_i T_u), and (u, s_i u, l(s_i u) > l(u)), the
# solve for tau(nu, s_i u)
_STEP_UP = {i: tuple((u, w0_mult(u, i), w0_length(w0_mult(u, i)) < w0_length(u))
                     for u in range(6)) for i in (1, 2)}
_STEP_ROW = {i: tuple((u, w0_mult(i, u), w0_length(w0_mult(i, u)) > w0_length(u))
                      for u in range(6)) for i in (1, 2)}


def _shift(nu, av, j):
    """The lattice point nu + j * av."""
    return (nu[0] + j * av[0], nu[1] + j * av[1])
