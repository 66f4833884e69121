"""Cyclic modules, mixed complexes, and Hochschild/cyclic homology.

The additive cyclic nerve of a list of controlled objects and the cyclic
module of a finite algebra are built by one routine over a small "category
data" interface: basis dimensions per hom space, composition coordinates,
and unit coordinates.  Degree n of the nerve is the direct sum, over
(n+1)-tuples of objects, of Hom(P_{o1},P_{o0}) x ... x Hom(P_{o0},P_{on}).

The degree-n basis is one value, `NerveBasis`: the keys (object tuple,
morphism index tuple), enumerated lexicographically so every matrix is
reproducible bit for bit, and their index.  It holds the one rule for the
hom space of each factor (`ends`), and every nerve operator (the faces, t,
the degeneracies, the front insertion, and the trace's nerve pushforward)
is one `matrix` call with an image function on keys.  Other modules read
keys, factors and coordinates through it and the category data.

Sign conventions (pinned by the identity suite below):
    d_i  composes adjacent factors, d_n wraps unsigned,
    t    = (-1)^n  x  cyclic rotation,
    b    = sum of (-1)^i d_i,
    B    = (1 - t) . (insert identity at the front) . N,   N = sum of t^i,
           one `connes_operator` for the nerve and for the trace's chains.
The b-complex and the total complex are `linalg.Complex` values, so b^2 = 0
and d^2 = 0 are checked once each, where they are built; `MixedComplex`
adds B^2 = 0 and bB + Bb = 0.  A failed identity raises `InvariantError`
with a convention diagnostic.  HH is the homology of the b-complex and HC
that of the total complex, built on the first `hc` call.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .controlled import HomSpace, compose, identity_morphism
from .linalg import QQ, Complex, InvariantError, Matrix

DEFAULT_MAX_DEGREE = 4
DEFAULT_BASIS_CAP = 200_000


class _NerveData:
    """Hom-space dimensions, composition and unit coordinates for a nerve
    (see `additive_cyclic_nerve` for the empty list and `domain`)."""

    def __init__(self, objects, domain=None):
        if objects:
            if domain is not None and domain is not objects[0].domain:
                raise ValueError(f"nerve domain {domain!r} differs from the objects' "
                                 f"{objects[0].domain!r}")
            space = objects[0].space
            domain = objects[0].domain
            for ob in objects:
                if ob.space is not space or ob.domain is not domain:
                    raise ValueError("all nerve objects must share one space and field")
        elif domain is None:
            domain = QQ
        if not domain.is_field:
            raise ValueError("the cyclic nerve needs field coefficients")
        self.objects = list(objects)
        self.domain = domain
        r = len(objects)
        self.hom = [[HomSpace(objects[s], objects[t]) for t in range(r)] for s in range(r)]
        self._comp = {}
        self._unit = {}

    @property
    def count(self):
        return len(self.objects)

    def dim(self, s, t):
        return self.hom[s][t].dim

    def morphism(self, s, t, k):
        """Basis morphism k of Hom(P_s, P_t)."""
        return self.hom[s][t].basis[k]

    def coordinates(self, s, t, mor):
        """Coordinates of a morphism P_s -> P_t in the hom basis."""
        return self.hom[s][t].coordinates(mor)

    def comp(self, s, mid, t, i, j):
        """Coordinates of basis_i . basis_j, basis_i in Hom(mid,t), basis_j in Hom(s,mid)."""
        key = (s, mid, t, i, j)
        out = self._comp.get(key)
        if out is None:
            out = self.coordinates(s, t, compose(self.morphism(mid, t, i),
                                                 self.morphism(s, mid, j)))
            self._comp[key] = out
        return out

    def unit(self, a):
        out = self._unit.get(a)
        if out is None:
            out = self.coordinates(a, a, identity_morphism(self.objects[a]))
            self._unit[a] = out
        return out


class _AlgebraData:
    """One-object category data straight from structure constants."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.domain = algebra.domain
        self.objects = None

    @property
    def count(self):
        return 1

    def dim(self, s, t):
        return self.algebra.dimension

    def comp(self, s, mid, t, i, j):
        return self.algebra.struct[i][j]

    def unit(self, a):
        return self.algebra.unit


class NerveBasis(list):
    """The degree-n basis: (object tuple o, morphism tuple m) keys in
    lexicographic order, with their index.

    Factor j of a key is basis morphism m[j] of Hom(P_o[j+1], P_o[j]),
    indices mod n + 1 (see `ends`).  Every nerve operator is one `matrix`
    call with an image function on keys.  The size is counted against the
    cap before any key is listed.
    """

    def __init__(self, data, n, cap=DEFAULT_BASIS_CAP):
        super().__init__()
        self.data = data
        self.degree = n
        total = 0
        for o in product(range(data.count), repeat=n + 1):
            total += prod(data.dim(*self.ends(o, j)) for j in range(n + 1))
            if total > cap:
                raise ValueError(
                    f"cyclic nerve degree {n} needs more than {cap} basis elements"
                )
        for o in product(range(data.count), repeat=n + 1):
            ranges = [range(data.dim(*self.ends(o, j))) for j in range(n + 1)]
            self.extend((o, m) for m in product(*ranges))
        self.index = {key: i for i, key in enumerate(self)}

    def ends(self, o, j):
        """(source, target) objects of factor j of a key with object tuple o."""
        n = self.degree
        return o[(j + 1) % (n + 1)], o[j]

    def factors(self, key):
        """The morphisms of a key, factor by factor."""
        o, m = key
        return [self.data.morphism(*self.ends(o, j), k) for j, k in enumerate(m)]

    def matrix(self, target, image, domain):
        """The operator sending each key to `image(key)`, a {target key: value}
        dict whose values `Matrix.from_columns` coerces into `domain`."""
        index = target.index
        cols = [{index[k]: v for k, v in image(key).items()} for key in self]
        return Matrix.from_columns(cols, len(target), domain)


def _face(basis, target, i):
    """d_i composes factors i and i + 1; d_n puts the composite in front."""
    n = basis.degree
    comp = basis.data.comp

    def image(key):
        o, m = key
        if i < n:
            s, mid = basis.ends(o, i + 1)
            o2 = o[: i + 1] + o[i + 2 :]
            return {(o2, m[:i] + (k,) + m[i + 2 :]): c
                    for k, c in comp(s, mid, o[i], m[i], m[i + 1]).items()}
        o2 = (o[n],) + o[1:n]
        return {(o2, (k,) + m[1:n]): c for k, c in comp(o[1], o[0], o[n], m[n], m[0]).items()}

    return basis.matrix(target, image, basis.data.domain)


def _rotation(basis):
    """t = (-1)^n x the cyclic rotation of the factors."""
    n = basis.degree
    sign = -1 if n % 2 else 1

    def image(key):
        o, m = key
        return {((o[n],) + o[:n], (m[n],) + m[:n]): sign}

    return basis.matrix(basis, image, basis.data.domain)


def _insert_unit(basis, target, i):
    """Insert an identity after factor i: s_i for 0 <= i <= n, and for
    i = -1 the identity of the first object in front (the extra degeneracy)."""
    data = basis.data

    def image(key):
        o, m = key
        a = basis.ends(o, i)[0]
        o2 = o[: i + 1] + (a,) + o[i + 1 :]
        return {(o2, m[: i + 1] + (k,) + m[i + 1 :]): c for k, c in data.unit(a).items()}

    return basis.matrix(target, image, data.domain)


def connes_operator(n, t_n, front, t_up):
    """B = (1 - t) . s . N in degree n, N = 1 + t + ... + t^n, from t in
    degrees n and n + 1 and the extra degeneracy s."""
    dom = t_n.domain
    norm = power = Matrix.identity(t_n.ncols, dom)
    for _ in range(n):
        power = power @ t_n
        norm = norm + power
    return (Matrix.identity(t_up.ncols, dom) - t_up) @ front @ norm


class CyclicModule:
    """Face, degeneracy, and cyclic matrices of a cyclic k-module, degrees <= N.

    Faces and t are built once; a degeneracy is built from the basis on call.
    """

    def __init__(self, max_degree, domain, basis, faces, cyc, data):
        self.max_degree = max_degree
        self.domain = domain
        self.basis = basis
        self.dims = [len(b) for b in basis]
        self._faces = faces
        self._cyc = cyc
        self.data = data

    def face(self, n, i):
        if not (1 <= n <= self.max_degree and 0 <= i <= n):
            raise ValueError(f"face d_{i} undefined in degree {n}")
        return self._faces[n][i]

    def degeneracy(self, n, i):
        if not (0 <= n < self.max_degree and 0 <= i <= n):
            raise ValueError(f"degeneracy s_{i} undefined in degree {n}")
        return _insert_unit(self.basis[n], self.basis[n + 1], i)

    def cyclic(self, n):
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"cyclic operator undefined in degree {n}")
        return self._cyc[n]

    def check_identities(self):
        """t^(n+1) = 1, d_i t = -t d_(i-1), and the simplicial identities.

        Of the simplicial identities d_i d_j = d_(j-1) d_i (i < j) only those
        with i = 0 are checked, n per degree instead of n(n+1)/2; the cyclic
        identities, checked first, give the rest.  Applying d_k t = -t d_(k-1)
        i times, with t invertible since t^(n+1) = 1, gives
        d_j = (-1)^i t^i d_(j-i) t^(-i) in every degree and for j >= i, so
        for i < j

            d_i d_j = t^i (d_0 d_(j-i)) t^(-i)   and
            d_(j-1) d_i = t^i (d_(j-i-1) d_0) t^(-i),

        the signs cancelling in pairs.  So d_i d_j = d_(j-1) d_i is
        d_0 d_k = d_(k-1) d_0 for k = j - i, conjugated by t^i.
        """
        for n in range(self.max_degree + 1):
            t = self.cyclic(n)
            acc = Matrix.identity(self.dims[n], self.domain)
            for _ in range(n + 1):
                acc = t @ acc
            if acc != Matrix.identity(self.dims[n], self.domain):
                raise InvariantError(f"t^{n + 1} = 1", n)
        for n in range(1, self.max_degree + 1):
            t_n = self.cyclic(n)
            t_prev = self.cyclic(n - 1)
            for i in range(1, n + 1):
                lhs = self.face(n, i) @ t_n
                rhs = (t_prev @ self.face(n, i - 1)).scale(-1)
                if lhs != rhs:
                    raise InvariantError(f"cyclic compatibility d_{i} t = -t d_{i - 1}", n)
        for n in range(2, self.max_degree + 1):
            d_0 = self.face(n - 1, 0)
            for j in range(1, n + 1):
                if d_0 @ self.face(n, j) != self.face(n - 1, j - 1) @ self.face(n, 0):
                    raise InvariantError(f"simplicial identity d_0 d_{j}", n)
        return True


def _build(data, max_degree, cap):
    basis = [NerveBasis(data, n, cap) for n in range(max_degree + 1)]
    faces = [[]] + [[_face(basis[n], basis[n - 1], i) for i in range(n + 1)]
                    for n in range(1, max_degree + 1)]
    cyc = [_rotation(b) for b in basis]
    mod = CyclicModule(max_degree, data.domain, basis, faces, cyc, data)
    mod.check_identities()
    return mod


def additive_cyclic_nerve(objects, max_degree=DEFAULT_MAX_DEGREE, cap=DEFAULT_BASIS_CAP, domain=None):
    """The cyclic module of the additive category spanned by the objects.

    An empty object list gives the zero module over `domain` (default Q);
    otherwise a given `domain` must be the objects' own.
    """
    return _build(_NerveData(objects, domain), max_degree, cap)


def algebra_cyclic_module(algebra, max_degree=DEFAULT_MAX_DEGREE, cap=DEFAULT_BASIS_CAP):
    """The cyclic module with degree n equal to the (n+1)-fold tensor power."""
    return _build(_AlgebraData(algebra), max_degree, cap)


class MixedComplex:
    """(C, b, B): b^2 = 0 checked by the b-complex, B^2 = 0 and bB + Bb = 0 here."""

    def __init__(self, max_degree, domain, dims, b, big_b, source=None):
        self.max_degree = max_degree
        self.domain = domain
        self.dims = dims
        self.b_complex = Complex(b, "Hochschild complex")
        self._B = big_b
        self.source = source
        self._tot = None
        self._verify()

    def b(self, n):
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"b undefined in degree {n}")
        return self.b_complex.d[n]

    def B(self, n):
        if not (0 <= n < self.max_degree):
            raise ValueError(f"B undefined in degree {n}")
        return self._B[n]

    def _verify(self):
        b = self.b_complex.d
        for n in range(self.max_degree - 1):
            if not (self._B[n + 1] @ self._B[n]).is_zero():
                raise InvariantError("mixed-complex identity B^2 = 0 (sign-convention bug)", n)
        for n in range(self.max_degree):
            anti = b[n + 1] @ self._B[n]
            if n >= 1:
                anti = anti + self._B[n - 1] @ b[n]
            if not anti.is_zero():
                raise InvariantError(
                    "mixed-complex identity bB + Bb = 0 (sign-convention bug)", n
                )


def to_mixed(module):
    """Mixed complex (C, b, B) of a cyclic module.

    b is the alternating face sum; B composes the cyclic norm, the front
    identity insertion, and (1 - t).
    """
    N = module.max_degree
    dom = module.domain
    dims = module.dims
    b = [Matrix(0, dims[0], dom)]
    for n in range(1, N + 1):
        acc = module.face(n, 0)
        for i in range(1, n + 1):
            acc = acc - module.face(n, i) if i % 2 else acc + module.face(n, i)
        b.append(acc)
    big = []
    for n in range(N):
        front = _insert_unit(module.basis[n], module.basis[n + 1], -1)
        big.append(connes_operator(n, module.cyclic(n), front, module.cyclic(n + 1)))
    return MixedComplex(N, dom, dims, b, big, source=module)


class TotComplex(Complex):
    """Total complex of the (B, b)-bicomplex: Tot_n = C_n + C_(n-2) + ...

    d_n is a block grid whose block j is C_(n-2j): b maps block j of
    Tot_n to block j of Tot_(n-1), and B maps it to block j - 1.  The
    blocks of d_(n-1) d_n are b^2, bB + Bb and B^2, so the identities
    already checked imply d^2 = 0 in every degree built here; the check
    `Complex` makes anyway only guards the `Matrix.block` layout.
    """

    def __init__(self, mixed):
        N = mixed.max_degree
        dom = mixed.domain
        d = [Matrix(0, mixed.dims[0], dom)]
        for n in range(1, N + 1):
            grid = [[None] * (n // 2 + 1) for _ in range((n - 1) // 2 + 1)]
            for j in range(n // 2 + 1):
                deg = n - 2 * j
                if deg >= 1:
                    grid[j][j] = mixed.b(deg)
                if j >= 1:
                    grid[j - 1][j] = mixed.B(deg)
            d.append(Matrix.block(grid, dom))
        super().__init__(d, "total complex")


def tot_B(mixed):
    """The total complex, built on first use."""
    if mixed._tot is None:
        mixed._tot = TotComplex(mixed)
    return mixed._tot


def hh(mixed, n):
    """Hochschild homology of the mixed complex at degree n <= N - 1."""
    return mixed.b_complex.homology(n)


def hc(mixed, n):
    """Cyclic homology: homology of the total complex at degree n <= N - 1."""
    return tot_B(mixed).homology(n)
