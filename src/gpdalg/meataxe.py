"""The MeatAxe over a prime field: Norton's irreducibility test.

A module is given by the matrices of a generating set of the algebra
acting on F_p^d.  ``proper_submodule`` returns a proper nonzero invariant
subspace, or None when the module is simple, from a handful of spins
instead of one spin per line of F_p^d (Parker, "The computer calculation
of modular characters", 1984; Holt & Rees, J. Austral. Math. Soc. A 57,
1994).

Norton's lemma.  Let t be a singular element of the algebra, K = ker t
and K' = ker t^T.  M is simple iff every nonzero v in K spins to M and
some nonzero w in K' spins to M* under the transposed matrices.  For if
U is a proper nonzero submodule, either U meets K, and a vector of the
meet spins inside U, or t is injective, hence bijective, on U; then
w(u) = w(t u') = (t^T w)(u') = 0 for w in K' and u = t u' in U, so K'
lies in the proper submodule U^perp of M*.  A proper spin of w gives
the proper submodule {x : W x = 0} of M.

Here t = f(theta) for a word theta in the generators and an irreducible
factor f of its characteristic polynomial.  K is a vector space over
the field F_p[x]/(f), so when dim K = deg f every nonzero v in K spans
K over F_p[theta], and v's spin contains every other one's: one spin of
each kind decides.  Words run through a fixed sequence, so the result
does not depend on a seed.  If no word has dim K = deg f, every line of
the smallest K is spun, the vectors charged against the bound by
``span_vectors``; that is exact too.

Polynomials are lists of ints mod p, low-degree first, with no trailing
zeros ([] is zero).
"""

from __future__ import annotations

from .linalg import (
    Matrix,
    Subspace,
    closure,
    left_kernel,
    mat_kernel,
    poly_at,
    span_vectors,
)

# Words tried after the generators, before the exhaustive fallback.
_WALK = 12


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _add(f, g, p, c=1):
    """f + c*g."""
    if len(f) < len(g):
        f = f + [0] * (len(g) - len(f))
    out = list(f)
    for i, b in enumerate(g):
        out[i] = (out[i] + c * b) % p
    return _trim(out)


def _mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([x % p for x in out])


def _divmod(f, g, p):
    """Quotient and remainder of f by g != 0."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(r) - dg, 0)
    while len(r) > dg:
        k = len(r) - 1 - dg
        c = r[-1] * inv % p
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % p
        _trim(r)
    return _trim(q), r


def _monic(f, p):
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _gcd(f, g, p):
    """Monic gcd; f and g not both zero."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _powmod(f, e, m, p):
    """f^e mod m, deg m >= 1."""
    out, base = [1], _divmod(f, m, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base, p), m, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), m, p)[1]
    return out


def _squarefree_parts(f, p):
    """Square-free polynomials whose irreducible factors, together, are
    those of the monic f.  With g = gcd(f, f'), f/g is the product of the
    factors whose multiplicity p does not divide, and g keeps the others;
    f' = 0 makes f = h(x^p) = h(x)^p."""
    parts = []
    while len(f) > 1:
        d = _trim([i * c % p for i, c in enumerate(f)][1:])
        if not d:
            f = f[::p]
            continue
        g = _gcd(f, d, p)
        parts.append(_divmod(f, g, p)[0])
        f = g
    return parts


def _distinct_degree(h, p):
    """(g, i) pairs, g the product of the degree-i irreducible factors of
    the square-free monic h: gcd(h, x^(p^i) - x)."""
    out = []
    x = [0, 1]
    w, i = x, 0
    while len(h) - 1 >= 2 * (i + 1):
        i += 1
        w = _powmod(w, p, h, p)
        g = _gcd(h, _add(w, x, p, -1), p)
        if len(g) > 1:
            out.append((g, i))
            h = _divmod(h, g, p)[0]
            w = _divmod(w, h, p)[1]
    if len(h) > 1:
        out.append((h, len(h) - 1))
    return out


def _equal_degree(g, i, p):
    """The irreducible factors of g, a square-free monic product of
    degree-i irreducibles (Cantor & Zassenhaus, Math. Comp. 36, 1981).

    In F_p[x]/(g) = F_q x ... x F_q, q = p^i, a probe a splits g unless
    every component agrees on a^((q-1)/2) = 1 (p odd) or on the trace
    a + a^2 + ... + a^(2^(i-1)) (p = 2).  The probes run through every
    monic polynomial of degree below deg g in a fixed order, read off the
    base-p digits of a counter, and by the Chinese remainder theorem one
    of them splits g."""
    n = len(g) - 1
    if n == i:
        return [g]
    for k in range(1, n):
        for c in range(p ** k):
            a = [c // p ** j % p for j in reversed(range(k))] + [1]
            if p == 2:
                b = t = _divmod(a, g, p)[1]
                for _ in range(i - 1):
                    t = _divmod(_mul(t, t, p), g, p)[1]
                    b = _add(b, t, p)
            else:
                b = _add(_powmod(a, (p ** i - 1) // 2, g, p), [1], p, -1)
            if not b:
                continue
            d = _gcd(g, b, p)
            if 1 < len(d) < len(g):
                return (_equal_degree(d, i, p)
                        + _equal_degree(_divmod(g, d, p)[0], i, p))
    raise AssertionError("no probe split a product of degree-%d factors" % i)


def irreducible_factors(f, p) -> list[list[int]]:
    """The distinct monic irreducible factors of f != 0 over F_p, by
    degree, then by coefficients from the top."""
    found = set()
    for part in _squarefree_parts(_monic(f, p), p):
        for g, i in _distinct_degree(part, p):
            found.update(tuple(h) for h in _equal_degree(g, i, p))
    return [list(h) for h in sorted(found, key=lambda h: (len(h), h[::-1]))]


def charpoly(M: Matrix) -> list[int]:
    """Characteristic polynomial of a square matrix over F_p: reduce to
    upper Hessenberg form H by similarity, then expand det(x - H) along
    the last column of each leading block (Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 2.2.9)."""
    p, n = M.ring.modulus, M.nrows
    H = [list(r) for r in M.rows()]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for r in H:
                r[i], r[m] = r[m], r[i]
        inv = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv % p
            if u:
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                for r in H:
                    r[m] = (r[m] + u * r[i]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        pm = _mul([-H[m - 1][m - 1] % p, 1], polys[m - 1], p)
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * H[i][i - 1] % p
            if not t:
                break
            c = H[i - 1][m - 1]
            if c:
                pm = _add(pm, polys[i - 1], p, -c * t)
        polys.append(pm)
    return polys[n]


def _is_scalar(M: Matrix) -> bool:
    """Whether M = c*1, read off the nonzero pairs of each row."""
    c = M.at(0, 0)
    return all(row == (((i, c),) if c else ())
               for i, row in enumerate(M._nz))


def _words(maps):
    """The non-scalar maps, then a fixed walk x <- x g_t + g_(t+1) through
    products and sums of them.  Scalars have K = M and decide nothing."""
    gens = list(dict.fromkeys(M for M in maps if not _is_scalar(M)))
    yield from gens
    if gens:
        x = gens[0]
        for t in range(_WALK):
            x = x * gens[t % len(gens)] + gens[(t + 1) % len(gens)]
            yield x


def proper_submodule(maps, field, dim: int, bound: int) -> Subspace | None:
    """A proper nonzero subspace of F_p^dim that every map sends into
    itself, or None when there is none, by Norton's test (module
    docstring).  The maps are matrices over the prime field `field`; the
    exhaustive fallback charges its vectors against `bound`."""
    if dim <= 1:
        return None
    p = field.modulus
    duals = [M.transpose() for M in maps]
    fallback = None
    for theta in _words(maps):
        for f in irreducible_factors(charpoly(theta), p):
            T = poly_at(f, theta)
            K = mat_kernel(T)
            S = closure(maps, Subspace._trusted(field, dim, K.basis[:1]))
            if S.num_rows < dim:
                return S
            W = closure(duals, Subspace._trusted(
                field, dim, left_kernel(T).basis[:1]))
            if W.num_rows < dim:
                return mat_kernel(Matrix._trusted(
                    field, W.num_rows, dim, [x for w in W.basis for x in w]))
            if K.num_rows == len(f) - 1:
                return None
            if fallback is None or K.num_rows < fallback.num_rows:
                fallback = K
    if fallback is None:
        # Every map is scalar: every subspace is invariant.
        return Subspace._trusted(field, dim, [(1,) + (0,) * (dim - 1)])
    for v in span_vectors(field, fallback.basis, bound):
        S = closure(maps, Subspace(field, dim, [v]))
        if S.num_rows < dim:
            return S
    return None
