"""The convolution algebra of a finite groupoid.

Elements are coefficient vectors indexed by arrows.  The product runs
over the composition table: (f * h)(c) collects f(a) h(b) over all
factorizations c = a b.  The algebra is unital because the object set is
finite; the unit is the indicator of the unit arrows.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatchError,
    GroupoidMismatchError,
    RingMismatchError,
)
from .groupoid import FiniteGroupoid, LocalBisection
from .linalg import Matrix
from .rings import ScalarRing


class AlgebraElement:
    __slots__ = ("groupoid", "ring", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, ring: ScalarRing, coeffs):
        coeffs = tuple(ring.coerce(c) for c in coeffs)
        if len(coeffs) != groupoid.n_arrows:
            raise DimensionMismatchError("coefficient vector has wrong length")
        self.groupoid = groupoid
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if self.groupoid != other.groupoid:
            raise GroupoidMismatchError("elements of different groupoid algebras")
        if self.ring != other.ring:
            raise RingMismatchError("elements over different rings")

    # The arithmetic is Python's; the constructor reduces each result.
    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.groupoid, self.ring,
                              [a + b for a, b in
                               zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.groupoid, self.ring,
                              [a - b for a, b in
                               zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return AlgebraElement(self.groupoid, self.ring,
                              [-a for a in self.coeffs])

    def scale(self, c):
        c = self.ring.coerce(c)
        return AlgebraElement(self.groupoid, self.ring,
                              [c * a for a in self.coeffs])

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        return convolve(self, other)

    def star(self):
        return involution(self)

    def support(self) -> tuple:
        z = self.ring.zero
        return tuple(a for a, c in enumerate(self.coeffs) if c != z)

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(c == z for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) \
            and self.groupoid == other.groupoid and self.ring == other.ring \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return "AlgebraElement(%s over %s)" % (list(self.coeffs),
                                               self.ring.spec_string())


def zero_element(g: FiniteGroupoid, ring: ScalarRing) -> AlgebraElement:
    return AlgebraElement(g, ring, [ring.zero] * g.n_arrows)


def basis_element(g: FiniteGroupoid, ring: ScalarRing, a: int) -> AlgebraElement:
    co = [ring.zero] * g.n_arrows
    co[a] = ring.one
    return AlgebraElement(g, ring, co)


def indicator(g: FiniteGroupoid, ring: ScalarRing, arrows) -> AlgebraElement:
    """Indicator function of an arrow subset (e.g. a local bisection)."""
    if isinstance(arrows, LocalBisection):
        arrows = arrows.arrows
    co = [ring.zero] * g.n_arrows
    for a in arrows:
        co[a] = ring.one
    return AlgebraElement(g, ring, co)


def unit_element(g: FiniteGroupoid, ring: ScalarRing) -> AlgebraElement:
    return indicator(g, ring, g.unit_of)


def convolve(f: AlgebraElement, h: AlgebraElement) -> AlgebraElement:
    f._check(h)
    g, R = f.groupoid, f.ring
    out = [R.zero] * g.n_arrows
    zero = R.zero
    for (a, b), c in g.comp.items():
        fa = f.coeffs[a]
        if fa == zero:
            continue
        hb = h.coeffs[b]
        if hb == zero:
            continue
        out[c] += fa * hb
    return AlgebraElement(g, R, out)


def involution(f: AlgebraElement) -> AlgebraElement:
    """f*(a) = f(inv a); an anti-automorphism of the algebra."""
    g = f.groupoid
    return AlgebraElement(g, f.ring,
                          [f.coeffs[g.inv[a]] for a in range(g.n_arrows)])


def left_mult_matrix(g: FiniteGroupoid, ring: ScalarRing, a: int) -> Matrix:
    """Matrix of f -> e_a * f on the arrow basis."""
    return _mult_matrix(g, ring, [(g.comp[(a, b)], b)
                                  for b in g.arrows_into(g.src[a])])


def right_mult_matrix(g: FiniteGroupoid, ring: ScalarRing, a: int) -> Matrix:
    """Matrix of f -> f * e_a on the arrow basis."""
    return _mult_matrix(g, ring, [(g.comp[(b, a)], b)
                                  for b in g.arrows_from(g.tgt[a])])


def _mult_matrix(g: FiniteGroupoid, ring: ScalarRing, places) -> Matrix:
    """The 0/1 matrix with a 1 at each (composite, b) of `places`, b over
    the arrows composable with the multiplier, built in the ring: the
    composite fixes b, so each row holds at most one pair."""
    m = g.n_arrows
    nz = [()] * m
    for c, b in places:
        nz[c] = ((b, ring.one),)
    return Matrix._sparse(ring, m, m, nz)
