"""Coefficient rings with exact arithmetic.

Three kinds are supported: the rationals (``q``), prime fields (``fp:p``)
and modular rings of integers (``zn:n``).  Elements are plain numbers
in one normal form: over the rationals an ``int`` when the value is
integral and a ``fractions.Fraction`` only when its denominator exceeds
1, over the finite rings ints in the canonical range [0, n).  A ring
only coerces values into that form (and inverts); arithmetic is
Python's, each finished value reduced once with ``coerce`` or
``% modulus``.  ``Fraction(n, 1)`` equals, hashes and prints as ``n``,
so the normal form changes no comparison and no output, and integer
arithmetic runs in C.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstructionError, UnsupportedRingError


# The first 13 prime bases decide primality exactly below _MR_LIMIT
# (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Strong-probable-prime test to ``_MR_BASES``: a failed base proves
    n composite at any size; passing every base proves n prime below
    ``_MR_LIMIT``, and above it the test raises rather than guess."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= _MR_LIMIT:
        raise UnsupportedRingError("%d passes every base, and primality is "
                                   "decided only below %d" % (n, _MR_LIMIT))
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


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

    zero = 0
    one = 1

    def spec_string(self):
        return "q"

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, bool):
            raise ConstructionError("cannot coerce %r into the rationals"
                                    % (x,))
        if isinstance(x, str) and ("e" in x or "E" in x):
            # Fraction would expand the exponent: "1e2000000" alone
            # costs seconds and megabytes.
            raise ConstructionError("cannot coerce %r into the rationals: "
                                    "no exponent notation" % (x,))
        if isinstance(x, (int, str)):
            try:
                return self.coerce(Fraction(x))
            except (ValueError, ZeroDivisionError):
                pass
        raise ConstructionError("cannot coerce %r into the rationals" % (x,))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.coerce(1 / Fraction(a))


class _FiniteRing(ScalarRing):
    def __init__(self, n: int):
        self.modulus = n

    def coerce(self, x):
        if type(x) is int:
            return x % self.modulus
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
        if not isinstance(x, int) or isinstance(x, bool):
            raise ConstructionError("cannot coerce %r mod %d" % (x, self.modulus))
        return x % self.modulus

    def inv(self, a):
        return pow(a, -1, self.modulus)

    def elements(self):
        return range(self.modulus)

    zero = 0
    one = 1


class PrimeField(_FiniteRing):
    kind = "prime_field"
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ConstructionError("%d is not prime" % p)
        super().__init__(p)

    def spec_string(self):
        return "fp:%d" % self.modulus


class IntegersMod(_FiniteRing):
    """Z/n with n >= 2.  The zero ring (n = 1) is rejected."""

    kind = "modular"
    is_field = False

    def __init__(self, n: int):
        if n < 2:
            raise ConstructionError("modulus must be >= 2, got %d" % n)
        super().__init__(n)

    def spec_string(self):
        return "zn:%d" % self.modulus

    def residue_field(self) -> PrimeField | None:
        """F_p when n is a power of the prime p, else None.  The root r
        of n = r^k with k largest is no perfect power, so n is a prime
        power iff r is prime."""
        n = root = self.modulus
        for k in range(n.bit_length() - 1, 1, -1):
            r = _iroot(n, k)
            if r ** k == n:
                root = r
                break
        return PrimeField(root) if is_prime(root) else None


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
