"""Coefficient rings with exact arithmetic.

Three kinds are supported: the rationals (``q``), prime fields (``fp:p``)
and modular rings of integers (``zn:n``).  Elements of the rationals are
``fractions.Fraction``; elements of the finite rings are plain ints kept
in the canonical range [0, n).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstructionError, UnsupportedRingError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class ScalarRing:
    """Common interface of the coefficient rings."""

    kind: str
    modulus: int | None
    is_field: bool

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and self.kind == other.kind \
            and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return "ScalarRing(%s)" % self.spec_string()

    def spec_string(self) -> str:
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # Finite rings yield all their elements; the rationals refuse.
    def elements(self):
        raise UnsupportedRingError("ring %s is not finite" % self.spec_string())

    @property
    def size(self) -> int | None:
        return self.modulus

    def coerce_vector(self, v) -> tuple:
        return tuple(self.coerce(x) for x in v)


class RationalField(ScalarRing):
    kind = "rationals"
    modulus = None
    is_field = True
    jacobson_radical_gens: tuple = ()

    zero = Fraction(0)
    one = Fraction(1)

    def spec_string(self):
        return "q"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str) and ("e" in x or "E" in x):
            # Fraction would expand the exponent: "1e2000000" alone
            # costs seconds and megabytes.
            raise ConstructionError("cannot coerce %r into the rationals: "
                                    "no exponent notation" % (x,))
        if isinstance(x, (int, str)):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise ConstructionError("cannot coerce %r into the rationals" % (x,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)


class _FiniteRing(ScalarRing):
    def __init__(self, n: int):
        self.modulus = n

    def coerce(self, x):
        if isinstance(x, str):
            try:
                x = int(x)
            except ValueError:
                raise ConstructionError("cannot coerce %r mod %d"
                                        % (x, self.modulus))
        if isinstance(x, Fraction):
            if x.denominator != 1:
                num = x.numerator % self.modulus
                try:
                    den = self.inv(x.denominator % self.modulus)
                except ValueError:
                    raise ConstructionError(
                        "denominator of %s is not invertible mod %d"
                        % (x, self.modulus))
                return (num * den) % self.modulus
            x = x.numerator
        if not isinstance(x, int):
            raise ConstructionError("cannot coerce %r mod %d" % (x, self.modulus))
        return x % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def elements(self):
        return range(self.modulus)

    zero = 0
    one = 1


class PrimeField(_FiniteRing):
    kind = "prime_field"
    is_field = True
    jacobson_radical_gens = ()

    def __init__(self, p: int):
        if not is_prime(p):
            raise ConstructionError("%d is not prime" % p)
        super().__init__(p)

    def spec_string(self):
        return "fp:%d" % self.modulus

    def inv(self, a):
        return pow(a, -1, self.modulus)


class IntegersMod(_FiniteRing):
    """Z/n with n >= 2.  The zero ring (n = 1) is rejected."""

    kind = "modular"
    is_field = False

    def __init__(self, n: int):
        if n < 2:
            raise ConstructionError("modulus must be >= 2, got %d" % n)
        super().__init__(n)
        rad = 1
        for p in _prime_factors(n):
            rad *= p
        # The Jacobson radical of Z/n is generated by the radical of n;
        # it vanishes exactly when n is squarefree.
        self.jacobson_radical_gens = () if rad == n else (rad % n,)

    def spec_string(self):
        return "zn:%d" % self.modulus

    def inv(self, a):
        return pow(a, -1, self.modulus)

    def residue_field(self) -> PrimeField | None:
        """F_p when n is a power of the prime p, else None."""
        ps = _prime_factors(self.modulus)
        if len(ps) == 1:
            return PrimeField(ps[0])
        return None


def ring_from_spec(spec: str) -> ScalarRing:
    """Parse ``q``, ``fp:<p>`` or ``zn:<n>``."""
    if spec == "q":
        return RationalField()
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ConstructionError("bad ring spec %r" % spec)
        return PrimeField(p)
    if spec.startswith("zn:"):
        try:
            n = int(spec[3:])
        except ValueError:
            raise ConstructionError("bad ring spec %r" % spec)
        return IntegersMod(n)
    raise ConstructionError("unknown ring spec %r" % spec)
