"""Two-sided ideals of a groupoid convolution algebra.

An ideal is a canonical subspace of the coefficient space that is closed
under convolution by every basis element on both sides.  The arrows span
the algebra and every arrow is a composite of ``generating_arrows``, so
that closure is invariance under the left and right multiplication
matrices of a generating set of arrows.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .algebra import AlgebraElement, left_mult_matrix, right_mult_matrix
from .errors import BoundExceededError, NotAnIdealError, UnsupportedRingError
from .groupoid import (FiniteGroupoid, generating_arrows, isotropy,
                       orbit_blocks, orbits)
from .linalg import (DEFAULT_BOUND, Subspace, closure, first_escape,
                     invariant_lattice)
from .rings import ScalarRing


def _arrow_actions(g: FiniteGroupoid, ring: ScalarRing) -> tuple:
    """Left and right multiplication by each generating arrow, interleaved;
    built once per groupoid object and ring.  Left multiplication is
    multiplicative and right multiplication anti-multiplicative, so
    invariance under these is invariance under every arrow."""
    key = ("arrow_actions", ring)
    if key not in g.memo:
        g.memo[key] = tuple(M for a in generating_arrows(g)
                            for M in (left_mult_matrix(g, ring, a),
                                      right_mult_matrix(g, ring, a)))
    return g.memo[key]


def _closed_two_sided(g: FiniteGroupoid, ring: ScalarRing,
                      space: Subspace) -> tuple | None:
    """None when closed; otherwise a witness (side, generating arrow,
    basis_vector)."""
    escape = first_escape(_arrow_actions(g, ring), space)
    if escape is None:
        return None
    i, v = escape
    return ("right" if i % 2 else "left", generating_arrows(g)[i // 2], v)


class Ideal:
    """Two-sided ideal, held as a canonical subspace of R^{arrows}."""

    __slots__ = ("groupoid", "ring", "space")

    def __init__(self, groupoid: FiniteGroupoid, ring: ScalarRing,
                 space: Subspace, check: bool = True):
        if space.ambient_dim != groupoid.n_arrows:
            raise NotAnIdealError("subspace has wrong ambient dimension")
        if space.ring != ring:
            raise NotAnIdealError("subspace over the wrong ring")
        if check:
            witness = _closed_two_sided(groupoid, ring, space)
            if witness is not None:
                raise NotAnIdealError(
                    "not closed under %s multiplication by arrow %d at %r"
                    % witness)
        self.groupoid = groupoid
        self.ring = ring
        self.space = space

    @property
    def basis(self):
        return self.space.basis

    def contains(self, f) -> bool:
        if isinstance(f, AlgebraElement):
            f = f.coeffs
        return self.space.contains(f)

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.groupoid == other.groupoid \
            and self.ring == other.ring and self.space == other.space

    def __hash__(self):
        return hash((self.ring, self.space))

    def __repr__(self):
        return "Ideal(%d basis rows in R^%d over %s)" % (
            len(self.space.basis), self.space.ambient_dim,
            self.ring.spec_string())

    def to_json_dict(self) -> dict:
        return {"ring": self.ring.spec_string(),
                "ambient": self.space.ambient_dim,
                "dim": self.space.num_rows,
                "basis": [[str(x) for x in row] for row in self.space.basis]}


def zero_ideal(g: FiniteGroupoid, ring: ScalarRing) -> Ideal:
    return Ideal(g, ring, Subspace.zero(ring, g.n_arrows), check=False)


def full_ideal(g: FiniteGroupoid, ring: ScalarRing) -> Ideal:
    return Ideal(g, ring, Subspace.full(ring, g.n_arrows), check=False)


def ideal_from_generators(g: FiniteGroupoid, ring: ScalarRing,
                          generators) -> Ideal:
    """Smallest two-sided ideal containing the generators."""
    gens = [f.coeffs if isinstance(f, AlgebraElement) else tuple(f)
            for f in generators]
    space = closure(_arrow_actions(g, ring), Subspace(ring, g.n_arrows, gens))
    return Ideal(g, ring, space, check=False)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    return a == b


def orbit_rows(ring: ScalarRing, m: int, blocks, rows) -> list[list]:
    """Each row of R[G_u] laid in R^m on every block of the orbit of u,
    `blocks` being its ``orbit_blocks``: rows spanning an ideal J of
    R[G_u] become rows spanning M_|O|(J), the matrices over J on the
    orbit O, 0 off it."""
    laid = []
    for block in blocks:
        for b in rows:
            f = [ring.zero] * m
            for a, x in zip(block, b):
                f[a] = x
            laid.append(f)
    return laid


def enumerate_all_ideals(g: FiniteGroupoid, ring: ScalarRing,
                         bound: int = DEFAULT_BOUND) -> list[Ideal]:
    """Every two-sided ideal (finite rings only), sorted by size then
    basis, found orbit by orbit.

    Arrows of different orbits multiply to 0, and through
    ``orbit_blocks`` the arrows over an orbit O with representative u
    span M_|O|(R[G_u]), so the algebra is the ring product of these over
    the orbits.  The ideals of a finite product of unital rings are the
    products of their ideals, and the ideals of M_k(B), B unital, are
    the M_k(J) for J an ideal of B.  So an ideal is one ideal J of each
    R[G_u] laid on every block of its orbit (``orbit_rows``), and only
    the ideals of R[G_u] are searched, in |G_u| dimensions:
    ``invariant_lattice`` under the arrow actions of the one-object
    groupoid, each search charged q^{|G_u|} against `bound`.  The
    product itself is charged its number of ideals.
    """
    if ring.size is None:
        raise UnsupportedRingError(
            "ideal enumeration runs over finite rings, not %s"
            % ring.spec_string())
    per_orbit = []
    for u in orbits(g).representatives:
        G, blocks = isotropy(g, u), orbit_blocks(g, u)
        lattice = invariant_lattice(_arrow_actions(G.groupoid, ring), ring,
                                    G.order, bound)
        per_orbit.append([orbit_rows(ring, g.n_arrows, blocks, J.basis)
                          for J in lattice])
    count = prod(map(len, per_orbit))
    if count > bound:
        raise BoundExceededError("%d ideals exceed bound %d" % (count, bound))
    spaces = [Subspace(ring, g.n_arrows, [f for rows in pick for f in rows])
              for pick in product(*per_orbit)]
    return [Ideal(g, ring, space, check=False)
            for space in sorted(spaces, key=lambda s: (s.num_rows, s.basis))]
