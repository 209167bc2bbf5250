"""Two-sided ideals of a groupoid convolution algebra.

An ideal is a canonical subspace of the coefficient space that is closed
under convolution by every basis element on both sides.  The arrows span
the algebra and every arrow is a composite of ``generating_arrows``, so
that closure is invariance under the left and right multiplication
matrices of a generating set of arrows.  Every ideal built here is laid
out from ideals of the isotropy group algebras (``product_ideal``).
"""

from __future__ import annotations

from itertools import product
from math import prod

from .algebra import AlgebraElement, left_mult_matrix, right_mult_matrix
from .errors import (BoundExceededError, GroupoidMismatchError,
                     NotAnIdealError, RingMismatchError, UnsupportedRingError)
from .groupoid import (FiniteGroupoid, generating_arrows, isotropy,
                       orbit_blocks, orbits)
from .linalg import (DEFAULT_BOUND, Matrix, Subspace, closure, first_escape,
                     invariant_lattice)
from .rings import ScalarRing


def _arrow_actions(g: FiniteGroupoid, ring: ScalarRing) -> dict:
    """{matrix: (side, arrow)} for left, then right multiplication by
    each generating arrow, built once per groupoid object and ring:
    invariance under these is invariance under every arrow.  The
    identity and repeats (left = right on an abelian group) are dropped;
    a repeat moves a vector out of a span only where its first copy
    does, so the first escape keeps its label."""
    key = ("arrow_actions", ring)
    if key not in g.memo:
        actions = {}
        for a in generating_arrows(g):
            actions.setdefault(left_mult_matrix(g, ring, a), ("left", a))
            actions.setdefault(right_mult_matrix(g, ring, a), ("right", a))
        actions.pop(Matrix.identity(ring, g.n_arrows), None)
        g.memo[key] = actions
    return g.memo[key]


def _closed_two_sided(g: FiniteGroupoid, ring: ScalarRing,
                      space: Subspace) -> tuple | None:
    """None when closed; otherwise a witness (side, generating arrow,
    basis_vector)."""
    actions = _arrow_actions(g, ring)
    escape = first_escape(actions, space)
    if escape is None:
        return None
    i, v = escape
    return (*tuple(actions.values())[i], v)


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
        return self.space.contains(_coeffs(self.groupoid, self.ring, f))

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


def product_ideal(g: FiniteGroupoid, ring: ScalarRing, parts) -> Ideal:
    """J on every block of the orbit of u, for each (u, J) of `parts`:
    one per orbit, J an ideal of R[G_u] as a canonical subspace.

    Through ``orbit_blocks`` the algebra is the ring product over the
    orbits O of M_|O|(R[G_u]), so its ideals are the products of the
    M_|O|(J) (the ideals of M_k(B), B unital, are the M_k(J)).  The
    blocks have disjoint supports, so the union of their canonical forms
    (RREF or Howell), sorted by pivot, is the canonical form of the
    whole: the other rows vanish at a block's columns, and a member with
    leading zeros up to j is a sum of such members, one per block, each
    generated by its block's rows with pivots at or beyond j.  A block
    whose arrows ascend takes J's basis as it is; any other puts J's rows
    in ascending arrow order and takes their canonical form."""
    m = g.n_arrows
    table = {}
    for u, J in parts:
        for block in orbit_blocks(g, u):
            order = sorted(range(len(block)), key=block.__getitem__)
            at = [block[i] for i in order]
            B = J if at == list(block) else Subspace(
                ring, len(block), [[b[i] for i in order] for b in J.basis])
            for p, b in zip(B.pivots, B.basis):
                f = [ring.zero] * m
                for a, x in zip(at, b):
                    f[a] = x
                table[at[p]] = f
    return Ideal(g, ring, Subspace._trusted(
        ring, m, [table[p] for p in sorted(table)]), check=False)


def _coeffs(g: FiniteGroupoid, ring: ScalarRing, f):
    """f's coefficients: f is a vector or an element of g's algebra over
    `ring`."""
    if not isinstance(f, AlgebraElement):
        return f
    if f.groupoid != g:
        raise GroupoidMismatchError("element of a different groupoid algebra")
    if f.ring != ring:
        raise RingMismatchError("element over a different ring")
    return f.coeffs


def ideal_from_generators(g: FiniteGroupoid, ring: ScalarRing,
                          generators) -> Ideal:
    """Smallest two-sided ideal containing the generators.  In M_k(B)
    some matrices generate M_k(J), J the ideal of B their entries
    generate; on the orbit of u the entries of f are f read on each block
    (``orbit_blocks``), so J is their closure under R[G_u]'s actions."""
    gens = [AlgebraElement(g, ring, _coeffs(g, ring, f)).coeffs
            for f in generators]
    parts = []
    for u in orbits(g).representatives:
        G = isotropy(g, u)
        entries = [[f[a] for a in block]
                   for block in orbit_blocks(g, u) for f in gens]
        parts.append((u, closure(_arrow_actions(G.groupoid, ring),
                                 Subspace(ring, G.order, entries))))
    return product_ideal(g, ring, parts)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    return a == b


def enumerate_all_ideals(g: FiniteGroupoid, ring: ScalarRing,
                         bound: int = DEFAULT_BOUND) -> list[Ideal]:
    """Every two-sided ideal (finite rings only), sorted by size then
    basis: the ``product_ideal`` of each choice of one ideal of R[G_u]
    per orbit, found by ``invariant_lattice`` in |G_u| dimensions and
    charged q^{|G_u|} against `bound`, the product its number of ideals."""
    if ring.size is None:
        raise UnsupportedRingError(
            "ideal enumeration runs over finite rings, not %s"
            % ring.spec_string())
    per_orbit = []
    for u in orbits(g).representatives:
        G = isotropy(g, u)
        per_orbit.append([(u, J) for J in invariant_lattice(
            _arrow_actions(G.groupoid, ring), ring, G.order, bound)])
    count = prod(map(len, per_orbit))
    if count > bound:
        raise BoundExceededError("%d ideals exceed bound %d" % (count, bound))
    ideals = [product_ideal(g, ring, pick) for pick in product(*per_orbit)]
    return sorted(ideals, key=lambda I: (I.space.num_rows, I.basis))
