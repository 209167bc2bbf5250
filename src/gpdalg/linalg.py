"""Exact linear algebra over the supported coefficient rings.

Row spans are kept in a canonical form that makes equality of subspaces a
plain tuple comparison: reduced row echelon form over the fields, Howell
form over Z/n.  The Howell form extends echelon form with annihilator
rows, so that every span element whose leading zeros reach position j is
generated by the basis rows with pivots at or beyond j; membership can
then be tested by straight reduction.

Two kernels grow the same way: rows go one at a time into a {pivot:
row} table (`_insert`) of plain ints, primitive integer rows eliminated
fraction-free over Q (Bareiss, Math. Comp. 22, 1968; the RREF read off
is the same) and residues mod n with the Howell property over every
finite ring, F_p as Z/p, where the Howell form is the RREF.  Bases,
joins, spins, membership and escape tests and normal forms all run on
such tables (`_table_rows` reads the canonical form off).  No `linalg`
operation calls ring arithmetic: entries are plain numbers, combined
with Python's operators and reduced mod n once per finished entry.
Over Q every entry handed out is in the rings' normal form, an `int`
when integral and a `Fraction` only otherwise: each finished sum is
normalised once (`_pairs`, `apply`), and `_table_rows` divides by the
pivot entry exactly where it can.

A `Matrix` is held by its nonzero entries only, row by row, so products,
sums, equality and hashing cost O(nnz), not O(rows * cols).  A map
between free spans is written in their bases by one product of the
target's pivot rows (`restrict`).  Over a finite ring every exhaustive
search draws its vectors from one guarded enumerator (`nonzero_vectors`,
one vector per line over a field and per leading divisor and tail over
Z/n, or their combinations of a basis, `span_vectors`), and the
whole-lattice searches (`all_submodules`, ideal enumeration, maximal
submodules over Z/n) read one lattice builder (`invariant_lattice`).
Over a prime field, the MeatAxe (`meataxe.py`) decides simplicity and
maximal submodules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import (
    BoundExceededError,
    DimensionMismatchError,
    NonFreeQuotientError,
    RingMismatchError,
    UnsupportedRingError,
)
from .rings import ScalarRing


class Matrix:
    """Matrix over a ScalarRing held by its nonzero entries: per row, the
    (column, entry) pairs of its nonzeros in column order (`_nz`), and
    nothing else.

    Every builder drops zeros, so the pairs are canonical and equality
    and hashing read (ring, shape, pairs).  Products (row by row,
    Gustavson, ACM TOMS 4, 1978), sums and transposes touch only the
    nonzeros they reach and drop the entries that cancel.  `entries`,
    `row`, `rows`, `col`, `at` and `to_lists` are dense reads of the
    pairs, `ring.zero` in the gaps; `entry_strings` writes the output
    layer's strings from the pairs.
    """

    __slots__ = ("ring", "nrows", "ncols", "_nz")

    def __init__(self, ring: ScalarRing, nrows: int, ncols: int, entries):
        entries = [ring.coerce(x) for x in entries]
        if len(entries) != nrows * ncols:
            raise DimensionMismatchError(
                "expected %d entries, got %d" % (nrows * ncols, len(entries)))
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        self._nz = _dense_nz(entries, nrows, ncols)

    @classmethod
    def _sparse(cls, ring, nrows, ncols, nz):
        # Caller promises nrows rows of (column, entry) pairs in column
        # order, each entry nonzero and already in `ring`.
        obj = cls.__new__(cls)
        obj.ring, obj.nrows, obj.ncols = ring, nrows, ncols
        obj._nz = tuple(nz)
        return obj

    @classmethod
    def _trusted(cls, ring, nrows, ncols, entries):
        # Caller promises nrows * ncols entries, each already in `ring`.
        return cls._sparse(ring, nrows, ncols,
                           _dense_nz(entries, nrows, ncols))

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [tuple(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatchError("ragged rows")
            flat.extend(r)
        return cls(ring, nrows, ncols, flat)

    @classmethod
    def identity(cls, ring, n):
        return cls._sparse(ring, n, n, [((i, ring.one),) for i in range(n)])

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls._sparse(ring, nrows, ncols, ((),) * nrows)

    def at(self, i, j):
        return dict(self._nz[i]).get(j, self.ring.zero)

    def row(self, i) -> tuple:
        out = [self.ring.zero] * self.ncols
        for j, x in self._nz[i]:
            out[j] = x
        return tuple(out)

    def rows(self) -> list[tuple]:
        return [self.row(i) for i in range(self.nrows)]

    @property
    def entries(self) -> tuple:
        return tuple(x for i in range(self.nrows) for x in self.row(i))

    def col(self, j) -> tuple:
        return tuple(self.at(i, j) for i in range(self.nrows))

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self._nz):
            for j, x in row:
                cols[j].append((i, x))
        return Matrix._sparse(self.ring, self.ncols, self.nrows,
                              map(tuple, cols))

    def apply(self, vec) -> tuple:
        """Matrix times column vector, over each row's nonzero entries."""
        if len(vec) != self.ncols:
            raise DimensionMismatchError("vector length %d, need %d"
                                         % (len(vec), self.ncols))
        zero, n = self.ring.zero, self.ring.modulus
        out = []
        for row in self._nz:
            acc = zero
            for j, x in row:
                acc += x * vec[j]
            out.append(acc)
        if n is None:
            return tuple([x if type(x) is int or x.denominator != 1
                          else x.numerator for x in out])
        return tuple([x % n for x in out])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatchError("matrix product over different rings")
        if self.ncols != other.nrows:
            raise DimensionMismatchError("shapes %dx%d and %dx%d"
                                         % (self.nrows, self.ncols,
                                            other.nrows, other.ncols))
        # Row i of the product sums a * (row k of other) over the pairs
        # (k, a) of row i: only the columns reached get an entry.
        n, rows = self.ring.modulus, other._nz
        out = []
        for row in self._nz:
            if not row:
                out.append(row)
                continue
            acc = {}
            for k, a in row:
                for j, b in rows[k]:
                    x = a * b
                    acc[j] = acc[j] + x if j in acc else x
            out.append(_pairs(acc, n))
        return Matrix._sparse(self.ring, self.nrows, other.ncols, out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatchError("matrix sum over different rings")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatchError("matrix sum shape mismatch")
        n = self.ring.modulus
        out = []
        for mine, theirs in zip(self._nz, other._nz):
            acc = dict(mine)
            for j, x in theirs:
                acc[j] = acc[j] + x if j in acc else x
            out.append(_pairs(acc, n))
        return Matrix._sparse(self.ring, self.nrows, self.ncols, out)

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.ring == other.ring \
            and self.nrows == other.nrows and self.ncols == other.ncols \
            and self._nz == other._nz

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols, self._nz))

    def __repr__(self):
        return "Matrix(%d x %d over %s)" % (self.nrows, self.ncols,
                                            self.ring.spec_string())

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def entry_strings(self) -> list:
        """``[str(x) for x in self.entries]``, read off the pairs: one
        `str` per distinct value, and one shared "0" in the gaps."""
        out = ["0"] * (self.nrows * self.ncols)
        names = {}
        at = 0
        for row in self._nz:
            for j, x in row:
                s = names.get(x)
                if s is None:
                    s = names[x] = str(x)
                out[at + j] = s
            at += self.ncols
        return out


def _dense_nz(entries, nrows, ncols) -> tuple:
    """Each row's nonzero (column, entry) pairs of row-major entries."""
    return tuple(tuple([(j, x) for j, x
                        in enumerate(entries[i * ncols:(i + 1) * ncols]) if x])
                 for i in range(nrows))


def _pairs(acc, n) -> tuple:
    """The nonzero items of a {column: entry} dict of unreduced sums, in
    column order, each entry first reduced mod n (n None over Q, where
    an integral sum becomes an int): a sum that cancels leaves no pair."""
    if n is None:
        return tuple([(j, x if type(x) is int or x.denominator != 1
                       else x.numerator)
                      for j, x in sorted(acc.items()) if x])
    return tuple([(j, r) for j, x in sorted(acc.items()) if (r := x % n)])


def poly_at(poly, X: Matrix) -> Matrix:
    """The integer polynomial (low-first coefficients) at X, by Horner."""
    R, d = X.ring, X.nrows
    P = Matrix.zeros(R, d, d)
    for c in map(R.coerce, reversed(poly)):
        P = P * X + Matrix._sparse(R, d, d, [((i, c),) for i in range(d)]
                                   if c else ((),) * d)
    return P


def _first_nonzero(row):
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _int_reduce(rows, v):
    """v <- b[p]*v - v[p]*b, cleared of content, for integer (pivot, row)
    pairs zero at each other's pivots: zero iff v is in their Q-span."""
    for p, b in rows:
        c = v[p]
        if c:
            d = b[p]
            g = gcd(c, d)
            c, d = c // g, d // g
            v = [d * x - c * y for x, y in zip(v, b)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
    return v


def _elim_row(ring, v) -> list:
    """v as the kernels hold it: a list, over Q a primitive integer row
    on its line (times the lcm of the denominators, over the gcd).  The
    ints of the normal form are their own numerators: only the other
    entries are split, and a row of ints is scaled by nothing."""
    if ring.modulus is not None:
        return list(v)
    w = list(v)
    dens = [x.denominator for x in w if type(x) is not int]
    if dens:
        den = lcm(*dens)
        w = [x * den if type(x) is int
             else x.numerator * (den // x.denominator) for x in w]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _elim_map(ring, M: Matrix):
    """v -> M v on the kernels' vectors; over Q by M times the lcm of the
    denominators of its non-int entries, which sends each vector to the
    same line."""
    if ring.modulus is not None:
        return M.apply
    rows = M._nz
    dens = [x.denominator for r in rows for _, x in r if type(x) is not int]
    if dens:
        den = lcm(*dens)
        rows = [[(j, x * den if type(x) is int
                  else x.numerator * (den // x.denominator)) for j, x in r]
                for r in rows]
    return lambda v: tuple([sum([x * v[j] for j, x in row])
                            for row in rows])


def _in_span(ring, table, v) -> bool:
    """Whether `_elim_row`'s v is in the span of an `_insert` table or of
    a canonical basis as one: iff a copy of v is reduced to zero.  The
    one membership test, behind `contains`, `coordinates`,
    `contains_subspace` and `first_escape`."""
    if ring.modulus is None:
        return not any(_int_reduce(table.items(), v))
    return _lead(ring.modulus, table, list(v)) is None


def _egcd(a, b):
    """g, s, t with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _unit_mult(a, n):
    """Smallest unit u of Z/n with u*a == gcd(a, n) mod n, for a != 0 mod n.

    The solutions in [1, n) are u0 + k*(n/g), k = 0..g-1, with
    u0 = (a/g)^-1 mod n/g; the first one coprime to n is the answer.
    """
    g = gcd(a, n)
    m = n // g
    u0 = pow(a // g, -1, m)
    for u in range(u0, n, m):
        if gcd(u, n) == 1:
            return u
    raise AssertionError("no unit multiplier for %d mod %d" % (a, n))


def _lead(n, table, row):
    """The finite kernel's reduction step: while the leading entry of the
    fresh list `row` is a multiple of the pivot of the table's row there,
    subtract that multiple in place, mod n, writing only the pivot row's
    nonzeros.  The column where it stops, or None once the row is zero:
    over a Howell table, iff the row is in the span."""
    w = len(row)
    j = 0
    while j < w:
        c = row[j]
        if c:
            p = table.get(j)
            if p is None or c % p[j]:
                return j
            c //= p[j]
            for k in range(j, w):
                y = p[k]
                if y:
                    row[k] = (row[k] - c * y) % n
        j += 1
    return None


def _insert(ring, table, v) -> bool:
    """Insert the fresh list v (as `_elim_row` gives it) into the echelon
    table {pivot: row}; True when the span grew.  The table's rows, and
    v, are changed or replaced in place.

    Over Q the table holds primitive integer rows, each zero at the
    others' pivots: v is reduced (`_int_reduce`), a nonzero residue gets
    a positive leading entry, clears its column from the other rows and
    is stored; `_table_rows` divides by the pivot entries.

    Over Z/n, F_p as Z/p, the table has the Howell property and every
    pivot divides n.  A worklist row is reduced (`_lead`), stored times
    a unit at a free leading column, and otherwise merged with the pivot
    row by a unimodular gcd step (Storjohann & Mulders, ESA 1998): the
    gcd row takes the slot and the remainder goes back on the worklist.
    A stored row with pivot d != 1 pushes (n/d)*row, so the Howell
    property holds again on return (over F_p every pivot is 1).  Members
    leave the table unchanged; every change fills a free column or
    shrinks a pivot to a proper divisor, so the worklist runs dry."""
    n = ring.modulus
    if n is None:
        v = _int_reduce(table.items(), v)
        lead = _first_nonzero(v)
        if lead is None:
            return False
        g = gcd(*v) if v[lead] > 0 else -gcd(*v)
        if g != 1:
            v = [x // g for x in v]
        for p, row in table.items():
            if row[lead]:
                table[p] = _int_reduce(((lead, v),), row)
        table[lead] = v
        return True
    grew = False
    work = [v]
    while work:
        row = work.pop()
        j = _lead(n, table, row)
        if j is None:
            continue
        b, p = row[j], table.get(j)
        if p is None:
            u = _unit_mult(b, n) if b != 1 else 1
            p = [(u * x) % n for x in row] if u != 1 else row
        else:
            # [p; rem] is a unimodular image of [old p; row]; the gcd
            # g divides the old pivot, hence n.
            a = p[j]
            g, s, t = _egcd(a, b)
            work.append([((a // g) * y - (b // g) * x) % n
                         for x, y in zip(p, row)])
            p = [(s * x + t * y) % n for x, y in zip(p, row)]
        table[j] = p
        grew = True
        if p[j] != 1:
            ann = n // p[j]
            work.append([(ann * x) % n for x in p])
    return grew


def _table_rows(ring, table, start=0) -> tuple:
    """The table's rows in pivot order, only those with pivots from
    `start` on, cut there: over Q each integer row divided by its pivot
    entry d, in the normal form (x // d where d divides x, else
    `Fraction(x, d)`), over a finite ring the Howell form once every
    entry above a pivot d is reduced into [0, d) in place, by the pivot
    row's nonzeros (over F_p, d = 1: the RREF)."""
    cols = sorted(p for p in table if p >= start)
    n = ring.modulus
    if n is None:
        out = []
        for p in cols:
            d = table[p][p]
            out.append(tuple([x // d if x % d == 0 else Fraction(x, d)
                              for x in table[p][start:]]))
        return tuple(out)
    for i, j in enumerate(cols):
        d = table[j][j]
        nz = [(k, y) for k, y in enumerate(table[j]) if y]
        for j2 in cols[:i]:
            other = table[j2]
            c = other[j] // d
            if c:
                for k, y in nz:
                    other[k] = (other[k] - c * y) % n
    return tuple(tuple(table[p][start:]) for p in cols)


def canonical_rows(ring, rows, width):
    """Canonical basis (RREF or Howell) of the span of `rows`, vectors of
    length `width`: each row is inserted into one pivot table."""
    table: dict[int, list] = {}
    for r in rows:
        if len(r) != width:
            raise DimensionMismatchError("row of length %d in width %d"
                                         % (len(r), width))
        _insert(ring, table, _elim_row(ring, ring.coerce_vector(r)))
    return _table_rows(ring, table)


class Subspace:
    """Submodule of R^ambient_dim held by its canonical row basis."""

    __slots__ = ("ring", "ambient_dim", "basis", "pivots", "_cols")

    def __init__(self, ring, ambient_dim, generators):
        self.ring, self.ambient_dim = ring, ambient_dim
        self.basis = canonical_rows(ring, generators, ambient_dim)
        self.pivots = tuple(_first_nonzero(b) for b in self.basis)
        self._cols = None

    @classmethod
    def _trusted(cls, ring, ambient_dim, basis):
        # Caller promises `basis` is already canonical.
        obj = cls.__new__(cls)
        obj.ring, obj.ambient_dim = ring, ambient_dim
        obj.basis = tuple(tuple(r) for r in basis)
        obj.pivots = tuple(_first_nonzero(b) for b in obj.basis)
        obj._cols = None
        return obj

    @classmethod
    def zero(cls, ring, ambient_dim):
        return cls._trusted(ring, ambient_dim, ())

    @classmethod
    def full(cls, ring, ambient_dim):
        # The identity rows are already in RREF and in Howell form.
        return cls._trusted(ring, ambient_dim,
                            Matrix.identity(ring, ambient_dim).rows())

    @property
    def num_rows(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self == Subspace.full(self.ring, self.ambient_dim)

    def _vector(self, v) -> tuple:
        # v coerced into R^ambient_dim.
        v = self.ring.coerce_vector(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector length %d in dimension %d"
                                         % (len(v), self.ambient_dim))
        return v

    def reduce(self, v) -> tuple:
        """Normal form of v modulo this span; zero iff v is a member.

        Read off the kernel: among the rows [0 | b] of the basis, the
        tagged row [1 | v] is the one row with pivot 0 of their canonical
        form, and its tail is v reduced at every pivot (the RREF and the
        Howell form are unique)."""
        R = self.ring
        table = {p + 1: [0] + b for p, b in self._elim_rows()}
        _insert(R, table, _elim_row(R, (R.one,) + self._vector(v)))
        return _table_rows(R, table)[0][1:]

    def contains(self, v) -> bool:
        R = self.ring
        return _in_span(R, dict(self._elim_rows()),
                        _elim_row(R, self._vector(v)))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        R, table = self.ring, dict(self._elim_rows())
        return all(_in_span(R, table, _elim_row(R, b)) for b in other.basis)

    def _rows(self) -> list:
        # (pivot, row) pairs in pivot order.
        return list(zip(self.pivots, self.basis))

    def _elim_rows(self) -> list:
        # The same pairs as the `_insert` tables hold them.
        return [(p, _elim_row(self.ring, b)) for p, b in self._rows()]

    def _basis_columns(self) -> Matrix:
        # The basis rows as the columns of a matrix, built on first use.
        if self._cols is None:
            self._cols = _columns(self.ring, self.basis, self.ambient_dim)
        return self._cols

    def has_unit_pivots(self) -> bool:
        """Whether every pivot is 1 (always over a field): a free basis."""
        one = self.ring.one
        return all(b[p] == one for b, p in zip(self.basis, self.pivots))

    def coordinates(self, v) -> tuple | None:
        """Coefficients of v in the basis, or None if v is outside.

        Requires unit pivots (``has_unit_pivots``).  The other rows are
        zero at each pivot column, so a member's coefficients are its
        entries there.
        """
        if not self.has_unit_pivots():
            raise NonFreeQuotientError("basis has non-unit pivots")
        v = self._vector(v)
        return tuple(v[p] for p in self.pivots) if self.contains(v) \
            else None

    def reducer(self) -> Matrix:
        """The matrix of ``reduce`` for unit pivots: x - sum_r x[p_r] b_r,
        as reducing by row r leaves the other pivots' entries alone."""
        R, n = self.ring, self.ambient_dim
        acc = [{i: R.one} for i in range(n)]
        for p, b in self._rows():
            for i, x in enumerate(b):
                if x:
                    acc[i][p] = acc[i].get(p, R.zero) - x
        return Matrix._sparse(R, n, n, [_pairs(a, R.modulus) for a in acc])

    def join(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        R = self.ring
        table = {p: list(b) for p, b in self._elim_rows()}
        for b in other.basis:
            _insert(R, table, _elim_row(R, b))
        return Subspace._trusted(self.ring, self.ambient_dim,
                                 _table_rows(self.ring, table))

    def element_count(self) -> int:
        """Number of elements of the span (finite rings only)."""
        R = self.ring
        if R.size is None:
            raise UnsupportedRingError("infinite ring")
        count = 1
        for b, p in zip(self.basis, self.pivots):
            count *= R.size // b[p]  # every pivot is 1 over a field
        return count

    def _check_compatible(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("subspaces over different rings")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ring == other.ring \
            and self.ambient_dim == other.ambient_dim \
            and self.basis == other.basis

    def __hash__(self):
        return hash((self.ring, self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in R^%d over %s)" % (
            len(self.basis), self.ambient_dim, self.ring.spec_string())


def _relations(ring, vectors, width, tags=None) -> list[tuple]:
    """Canonical basis (RREF or Howell) of {sum_i c_i t_i : sum_i c_i v_i
    = 0}, for v_i in R^width with tags t_i (by default e_i: the relations).

    In one canonical form of the rows [v_i | t_i], the rows whose left
    block vanished, those with pivots from `width` on, span every [0 | t]
    of the span (over Z/n by the Howell property), and their right blocks
    are in RREF or Howell form: the canonical basis, with no second
    elimination.  The entries are ring elements, so none is coerced.
    """
    if tags is None:
        tags = Matrix.identity(ring, len(vectors)).rows()
    table: dict[int, list] = {}
    for v, t in zip(vectors, tags):
        _insert(ring, table, _elim_row(ring, tuple(v) + tuple(t)))
    return list(_table_rows(ring, table, width))


def mat_kernel(mat: Matrix) -> Subspace:
    """Kernel {x : mat @ x = 0}: the relations among the columns."""
    R = mat.ring
    cols = mat.transpose().rows()
    return Subspace._trusted(R, mat.ncols, _relations(R, cols, mat.nrows))


def left_kernel(mat: Matrix) -> Subspace:
    """{x : x @ mat = 0}: the relations among the rows."""
    R = mat.ring
    return Subspace._trusted(R, mat.nrows,
                             _relations(R, mat.rows(), mat.ncols))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection (Zassenhaus): x = sum_i c_i a_i lies in b iff
    sum_i c_i a_i + sum_j d_j b_j = 0 for some d, so the meet is the
    tags of the relations among a's and b's rows, a_i tagged by itself
    and b_j by 0."""
    a._check_compatible(b)
    R, dim = a.ring, a.ambient_dim
    return Subspace._trusted(R, dim, _relations(
        R, a.basis + b.basis, dim, a.basis + ((R.zero,) * dim,) * b.num_rows))


def subspace_preimage(mat: Matrix, target: Subspace) -> Subspace:
    """{x : mat @ x lies in target}: the relations among mat's columns
    and the target rows, tagged by their x-part (e_j on column j, 0 on
    the target rows); the target is closed under negation, so a
    relation's x-part needs no sign."""
    R = mat.ring
    if target.ring != R:
        raise RingMismatchError("preimage target over a different ring")
    if target.ambient_dim != mat.nrows:
        raise DimensionMismatchError("target lives in R^%d, map lands in R^%d"
                                     % (target.ambient_dim, mat.nrows))
    k = mat.ncols
    vectors = mat.transpose().rows() + list(target.basis)
    tags = [e[:k] for e in Matrix.identity(R, len(vectors)).rows()]
    return Subspace._trusted(R, k, _relations(R, vectors, mat.nrows, tags))


def _columns(ring, vectors, width) -> Matrix:
    """The vectors of R^width as the columns of a matrix."""
    return Matrix._sparse(ring, len(vectors), width, [
        tuple([(i, x) for i, x in enumerate(v) if x]) for v in vectors
    ]).transpose()


def restrict(M: Matrix, source: Subspace, target: Subspace) -> Matrix:
    """M from `source`'s basis into the coordinates of `target`'s, which
    needs unit pivots; M must send `source` into `target`, unchecked.  A
    member's coordinates are its entries at the pivots (``coordinates``),
    so this is the rows ``target.pivots`` of M times source's basis as
    columns, built once per source (``Subspace._basis_columns``)."""
    if not target.has_unit_pivots():
        raise NonFreeQuotientError("basis has non-unit pivots")
    if M.nrows != target.ambient_dim:
        raise DimensionMismatchError("map and target dimensions differ")
    rows = Matrix._sparse(M.ring, target.num_rows, M.ncols,
                          [M._nz[p] for p in target.pivots])
    return rows * source._basis_columns()


DEFAULT_BOUND = 1 << 20


def nonzero_vectors(ring, dim, bound):
    """The vectors an exhaustive search over R^dim needs, R = Z/n finite:
    those whose first nonzero entry is a proper divisor of n (1 over a
    field: one vector per line).  Each nonzero v is a unit multiple of
    one of them, with the same spin and invertibility; over Z/4 the
    vector (2) spans less than (1).  The one guarded exhaustive
    enumerator: raises BoundExceededError when the state space |R|^dim
    exceeds `bound`.  Yields in lexicographic order.
    """
    n = ring.size
    if n ** dim > bound:
        raise BoundExceededError("state space %d^%d exceeds bound %d"
                                 % (n, dim, bound))
    if dim == 0:  # R^0 has no nonzero vector; do not list R
        return iter(())
    elems = list(ring.elements())
    leads = [d for d in range(1, n) if n % d == 0]
    # Leading d at position i, last position first: lexicographic order.
    return ((ring.zero,) * i + (d,) + tail
            for i in reversed(range(dim)) for d in leads
            for tail in product(elems, repeat=dim - 1 - i))


def span_vectors(ring, basis, bound):
    """sum c_i b_i for each c of ``nonzero_vectors`` (charged against
    `bound`), by one ``apply`` of the basis rows as columns."""
    B = _columns(ring, basis, len(basis[0]) if basis else 0)
    return (B.apply(c) for c in nonzero_vectors(ring, len(basis), bound))


def first_escape(maps, space: Subspace):
    """The first (map index, basis vector) whose image leaves the span,
    basis vector by basis vector; None when every map keeps it.  Over Q
    on integers: M v is in the span iff D M (s v) is, for the multiples
    of `_elim_map` and `_elim_row`."""
    R, rows = space.ring, space._elim_rows()
    table = dict(rows)
    apply = [_elim_map(R, M) for M in maps]
    for v, (_, w) in zip(space.basis, rows):
        for i, f in enumerate(apply):
            if not _in_span(R, table, f(w)):
                return i, v
    return None


def closure(maps, space: Subspace) -> Subspace:
    """Smallest subspace containing `space` that every map sends into itself.

    A worklist spin (Parker's MeatAxe, 1984): every map is applied once to
    each spanning vector, the initial basis rows and the images added
    since.  The span is held as an echelon table {pivot: row}, and each
    distinct image of a popped vector is inserted once (`_insert`), the
    insertion being the membership test.  An image that grows the span
    is pushed raw, not as its residue (over Q the vectors and maps are
    the integer ones of `_elim_row` and `_elim_map`).  The spin stops as
    soon as the table is full: `ambient_dim` rows, each with pivot 1
    (over Q the only full primitive table is the identity; a Howell
    table can have `ambient_dim` rows and still be proper: (2) in Z/4).
    The result is spanned by the vectors ever pushed and holds each
    one's images, so it is invariant, over Z/n too.
    """
    R, dim = space.ring, space.ambient_dim
    rows = space._elim_rows()
    table = {p: list(b) for p, b in rows}
    todo = [b for _, b in rows]
    apply = [_elim_map(R, M) for M in maps]
    while todo and (len(table) < dim
                    or any(row[p] != 1 for p, row in table.items())):
        v = todo.pop()
        for w in dict.fromkeys(f(v) for f in apply):
            if _insert(R, table, list(w)):
                todo.append(w)
    return Subspace._trusted(R, dim, _table_rows(R, table))


def invariant_lattice(maps, ring, dim, bound) -> list[Subspace]:
    """Every subspace of R^dim that all maps send into itself, sorted by
    size then basis (finite rings only).

    Every invariant subspace is the join of the cyclic closures it
    contains, so the lattice is the set of joins of subsets of the
    closures of ``nonzero_vectors`` (which charges them against `bound`;
    a unit multiple of a vector has the same closure).
    Starting from {0}, each closure C not yet found is folded in by
    joining it to everything found so far; after C_1..C_k the set holds
    the join of every subset of them, so a closure already found adds
    nothing.
    """
    found = {Subspace.zero(ring, dim)}
    for v in nonzero_vectors(ring, dim, bound):
        C = closure(maps, Subspace(ring, dim, [v]))
        if C not in found:
            found |= {S.join(C) for S in found}
    return sorted(found, key=lambda s: (s.num_rows, s.basis))
