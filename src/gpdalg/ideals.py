"""Two-sided ideals of a groupoid convolution algebra.

An ideal is a canonical subspace of the coefficient space that is closed
under convolution by every basis element on both sides.
"""

from __future__ import annotations

from .algebra import AlgebraElement, basis_element, convolve
from .errors import NotAnIdealError, UnsupportedRingError
from .groupoid import FiniteGroupoid
from .linalg import Subspace, join_closure, nonzero_vectors
from .rings import ScalarRing


def _closed_two_sided(g: FiniteGroupoid, ring: ScalarRing,
                      space: Subspace) -> tuple | None:
    """None when closed; otherwise a witness (side, arrow, basis_vector)."""
    for v in space.basis:
        f = AlgebraElement(g, ring, v)
        for a in range(g.n_arrows):
            e = basis_element(g, ring, a)
            if not space.contains(convolve(e, f).coeffs):
                return ("left", a, v)
            if not space.contains(convolve(f, e).coeffs):
                return ("right", a, v)
    return None


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

    def basis_elements(self) -> list[AlgebraElement]:
        return [AlgebraElement(self.groupoid, self.ring, v)
                for v in self.space.basis]

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
    gens = []
    for f in generators:
        gens.append(f.coeffs if isinstance(f, AlgebraElement) else tuple(f))
    space = Subspace(ring, g.n_arrows, gens)
    while True:
        witness = _closed_two_sided(g, ring, space)
        if witness is None:
            break
        new_rows = list(space.basis)
        for v in space.basis:
            f = AlgebraElement(g, ring, v)
            for a in range(g.n_arrows):
                e = basis_element(g, ring, a)
                new_rows.append(convolve(e, f).coeffs)
                new_rows.append(convolve(f, e).coeffs)
        bigger = Subspace(ring, g.n_arrows, new_rows)
        if bigger == space:
            break
        space = bigger
    return Ideal(g, ring, space, check=False)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    return a == b


def enumerate_all_ideals(g: FiniteGroupoid, ring: ScalarRing,
                         bound: int = 1 << 20) -> list[Ideal]:
    """Every two-sided ideal (finite fields only): the principal ideals of
    the nonzero vectors, closed under joins."""
    if not ring.is_field or ring.size is None:
        raise UnsupportedRingError(
            "ideal enumeration runs over finite fields, not %s"
            % ring.spec_string())
    principal = (ideal_from_generators(g, ring, [v]).space
                 for v in nonzero_vectors(ring, g.n_arrows, bound))
    return [Ideal(g, ring, space, check=False)
            for space in join_closure(Subspace.zero(ring, g.n_arrows),
                                      principal)]
