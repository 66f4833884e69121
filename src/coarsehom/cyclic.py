"""Cyclic modules, mixed complexes, and Hochschild/cyclic homology.

The additive cyclic nerve of a list of controlled objects is built from
its nerve data, `_NerveData`: one id for every basis morphism of every hom
space, cached composition coordinates over those ids, and the id of each
identity.  One object gives the cyclic module of its endomorphism algebra.
Degree n of the nerve is the direct sum, over (n+1)-tuples of objects, of
Hom(P_{o1},P_{o0}) x ... x Hom(P_{o0},P_{on}).

The degree-n basis is one value, `NerveBasis`: the keys and their index.
A key is the tuple of its factors' morphism ids, a closed chain of n + 1
composable morphisms, which fixes its objects.  The keys are listed in
walk order, object tuple by object tuple, so every matrix is reproducible
bit for bit.  An object tuple with a zero hom factor has no keys, so the
enumeration visits only the closed walks in the support graph of Hom, not
all r^(n+1) tuples of r objects, and costs per nonempty tuple.  Every
nerve operator (the faces, t, the degeneracies, s N, and the trace's nerve
pushforward) is one `matrix` call with an image function on keys, and each
is a plain tuple edit: a face puts the id of a composite in place of two
ids, t moves the last id to the front, and inserting an identity inserts
its id.  Other modules read keys, factors and coordinates through the
basis and the nerve data.

XHH and XHC are computed on the normalized nerve,
`normalized_mixed_complex`.  A key is degenerate when a factor j >= 1 is
the identity of its object; the nerve data makes every identity a basis
vector and checks the unit law, so the degenerate keys span the images of
the degeneracies, a subcomplex with the same HH and HC as the whole
(Eilenberg-Mac Lane).  `NormalizedNerveBasis` lists only the other keys,
and its operators are b, from the face images, and B = s N: on the
quotient t s N is zero, so the (1 - t) drops out (Loday 2.1.9).  Either
mixed complex carries its bases, so the nerve pushforward runs on both
kinds.  The full nerve (`additive_cyclic_nerve`, `to_mixed`) is built
only where t is needed: for the trace and the identity suite.

Sign conventions (pinned by the identity suite below, on the full nerve):
    d_i  composes adjacent factors, d_n wraps unsigned,
    t    = (-1)^n  x  cyclic rotation,
    b    = sum of (-1)^i d_i,
    s N  = sum of the identity put in front of t^i = (-1)^(ni) x rotation^i,
    B    = (1 - t) . s N,
           one key map `_s_norm` for both nerves (the trace's chains code
           the same formula on tuples, independently).
On the normalized nerve b is the same sum and B = s N.  The b-complex is
a `linalg.Complex`, so b^2 = 0 is checked once, where it is built;
`MixedComplex` adds B^2 = 0 and bB + Bb = 0, on either nerve.  Together
they imply d^2 = 0 of the total complex, which `TotComplex` does not
check again.  A failed identity raises `InvariantError` with a convention
diagnostic.  HH is the homology of the b-complex, and HC that of the
total complex of b and B.  `hochschild_cyclic_betti` derives HC from HH
through Connes' SBI sequence, and builds and reduces the `TotComplex`
only where the connecting map B_* can be nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .controlled import HomSpace, compose, identity_morphism
from .linalg import QQ, Complex, InvariantError, Matrix, finished, total_boundaries

DEFAULT_MAX_DEGREE = 4
BASIS_CAP = 200_000  # keys per degree, read when a basis is listed


class _NerveData:
    """The nerve's hom spaces, with one id for each basis morphism (see
    `additive_cyclic_nerve` for the empty list and `domain`).

    ids[s][t] is the range of ids of Hom(P_s, P_t), and ends[g] = (s, t, k)
    says that id g is its basis vector k; unit[a] is the id of the identity
    of object a, None for a zero object, whose End is 0.  Coordinates and
    the cached products of basis morphisms are read over ids.

    The identity of every object is a basis vector of its End space: where
    the solved basis spreads it as u = sum u_i e_i, the least e_k with
    u_k != 0 is replaced by the identity, and coordinates are transformed
    to match.  Both that and the unit law on the hom bases are checked
    here; the unit law is what makes the keys with an identity factor a
    subcomplex, so the normalized nerve rests on it.
    """

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
        self.ids = [[None] * r for _ in range(r)]
        self.ends = []
        for s in range(r):
            for t in range(r):
                start = len(self.ends)
                self.ends += [(s, t, k) for k in range(self.hom[s][t].dim)]
                self.ids[s][t] = range(start, len(self.ends))
        self._products = {}
        self._pivot = {}  # object -> (k, u): e_k of End(P_a) is the identity u
        for a, ob in enumerate(self.objects):
            u = self.hom[a][a].coordinates(identity_morphism(ob))
            k = min(u, default=None)
            if u and u != {k: domain.one}:
                self._pivot[a] = (k, u)
        self.unit = [self._unit_id(a) for a in range(r)]
        self._check_unit_law()

    @property
    def count(self):
        return len(self.objects)

    def morphism(self, g):
        """The basis morphism with id g."""
        s, t, k = self.ends[g]
        if s == t and s in self._pivot and self._pivot[s][0] == k:
            return identity_morphism(self.objects[s])
        return self.hom[s][t].basis[k]

    def coordinates(self, s, t, mor):
        """Coordinates {id: c} of a morphism P_s -> P_t."""
        coords = self.hom[s][t].coordinates(mor)
        if s == t and s in self._pivot and self._pivot[s][0] in coords:
            # v = sum v_i e_i with e_k = (u - sum_(i != k) u_i e_i) / u_k
            k, u = self._pivot[s]
            ck = coords[k] * self.domain.coerce(Fraction(1) / u[k])
            for i, ui in u.items():
                coords[i] = coords.get(i, 0) - ui * ck
            coords[k] = ck
            coords = finished(coords, self.domain)
        start = self.ids[s][t].start
        return {start + k: v for k, v in coords.items()}

    def product(self, g, h):
        """Coordinates of morphism(g) . morphism(h), where h ends where g starts."""
        out = self._products.get((g, h))
        if out is None:
            out = self._products[g, h] = self.coordinates(
                self.ends[h][0], self.ends[g][1], compose(self.morphism(g), self.morphism(h)))
        return out

    def _unit_id(self, a):
        u = self.coordinates(a, a, identity_morphism(self.objects[a]))
        if not u and not self.ids[a][a]:
            return None
        g = min(u, default=None)
        if u != {g: self.domain.one}:
            raise InvariantError(f"the identity of nerve object {a} is one basis vector")
        return g

    def _check_unit_law(self):
        one = self.domain.one
        for g, (s, t, _) in enumerate(self.ends):
            e = {g: one}
            if self.product(self.unit[t], g) != e or self.product(g, self.unit[s]) != e:
                raise InvariantError(f"unit law id . f = f = f . id on Hom(P_{s}, P_{t})")


class NerveBasis(list):
    """The degree-n basis: keys (g_0, ..., g_n) of morphism ids in walk
    order, with their index.

    Factor j of a key lies in Hom(P_o[j+1], P_o[j]) for the key's object
    tuple o, indices mod n + 1: each factor starts where the next one ends,
    so a key is a closed chain of composable morphisms.  Every nerve
    operator is one `matrix` call with an image function on keys.

    Only the object tuples whose factors all have a nonempty id range carry
    keys.  They are the closed walks o[0] -> o[1] -> ... -> o[n] -> o[0] in
    the support graph of Hom, where factor j may step from a to c when its
    range on Hom(P_c, P_a) is nonempty.  `_walks` lists them depth first in
    increasing object order, and each tuple's keys follow in the product
    order of its ranges, so each tuple's ranges are computed once and the
    cost is per nonempty tuple.  The size is counted against the cap during
    the walk, before any key is listed.
    """

    def __init__(self, data, n):
        super().__init__()
        self.data = data
        self.degree = n
        tuples = []
        total = 0
        for o in self._walks():
            ranges = self._ranges(o)
            total += prod(map(len, ranges))
            if total > BASIS_CAP:
                raise ValueError(
                    f"cyclic nerve degree {n} needs more than {BASIS_CAP} basis elements"
                )
            tuples.append(ranges)
        for ranges in tuples:
            self.extend(product(*ranges))
        self.index = {key: i for i, key in enumerate(self)}

    def _walks(self):
        """The object tuples on which every factor has a nonempty range, in
        lexicographic order: factor j steps from o[j] to o[j+1], and the
        last factor wraps from o[n] back to o[0].  The depth-first walk
        keeps its own stack, children pushed last-first, so no closure
        holds the basis."""
        n = self.degree
        objects = range(self.data.count)
        steps = [[[c for c in objects if self._factor_range(j, c, a)] for a in objects]
                 for j in range(n)]
        stack = [(a,) for a in reversed(objects)]
        while stack:
            o = stack.pop()
            j = len(o) - 1
            if j < n:
                stack.extend(o + (c,) for c in reversed(steps[j][o[j]]))
            elif self._factor_range(n, o[0], o[n]):
                yield o

    def _factor_range(self, j, s, t):
        """The morphism ids of factor j, in Hom(P_s, P_t)."""
        return self.data.ids[s][t]

    def _ranges(self, o):
        """The morphism ids of each factor of the keys on object tuple o."""
        n = self.degree
        return [self._factor_range(j, o[(j + 1) % (n + 1)], o[j]) for j in range(n + 1)]

    def degenerate(self, key):
        """Whether a key is zero in this basis's complex: never, here."""
        return False

    def matrix(self, target, image, domain):
        """The operator sending each key to the sum of `image(key)`, an iterable
        of (target key, value) pairs; `Matrix.from_columns` finishes each
        column in `domain` as it is made, so no list of raw columns is held.
        A target key outside `target` must be degenerate there, and is
        dropped."""
        index = target.index

        def columns():
            for key in self:
                col = {}
                for k, v in image(key):
                    i = index.get(k)
                    if i is not None:
                        col[i] = col.get(i, 0) + v
                    elif not target.degenerate(k):
                        raise InvariantError(f"image key {k} lies in the nerve basis",
                                             target.degree)
                yield col

        return Matrix.from_columns(columns(), len(target), domain)


class NormalizedNerveBasis(NerveBasis):
    """The normalized degree-n basis: the keys whose factors j >= 1 are not
    the identity basis vector of their object.

    The keys with an identity factor j >= 1 span the degenerate subcomplex,
    whose quotient has the same homology (Eilenberg-Mac Lane).  Only the
    other keys are listed, so the cap counts them; `matrix` drops the
    degenerate target keys, which are zero in the quotient.
    """

    def __init__(self, data, n):
        self._units = frozenset(data.unit)
        super().__init__(data, n)

    def _factor_range(self, j, s, t):
        ids = super()._factor_range(j, s, t)
        if j and s == t:
            return [g for g in ids if g != self.data.unit[s]]
        return ids

    def degenerate(self, key):
        return not self._units.isdisjoint(key[1:])


def _face_image(basis, i):
    """d_i composes factors i and i + 1; d_n puts the composite in front."""
    n = basis.degree
    product = basis.data.product
    if i < n:
        return lambda key: [(key[:i] + (k,) + key[i + 2 :], c)
                            for k, c in product(key[i], key[i + 1]).items()]
    return lambda key: [((k,) + key[1:n], c) for k, c in product(key[n], key[0]).items()]


def _face(basis, target, i):
    return basis.matrix(target, _face_image(basis, i), basis.data.domain)


def _rotation(basis):
    """t = (-1)^n x the cyclic rotation of the factors."""
    n = basis.degree
    sign = -1 if n % 2 else 1
    return basis.matrix(basis, lambda key: [((key[n],) + key[:n], sign)], basis.data.domain)


def _insert_unit(basis, target, i):
    """Insert the identity of the object after factor i, coefficient one: s_i
    for 0 <= i <= n, and for i = -1 the identity of the first object in
    front (the extra degeneracy s).  That object is where factor i starts."""
    unit, ends = basis.data.unit, basis.data.ends
    one = basis.data.domain.one

    def image(key):
        return (key[: i + 1] + (unit[ends[key[i]][0]],) + key[i + 1 :], one),

    return basis.matrix(target, image, basis.data.domain)


def _normalized_b(basis, target):
    """b = sum of (-1)^i d_i, one column per key from the face images."""
    faces = [_face_image(basis, i) for i in range(basis.degree + 1)]

    def image(key):
        for i, face in enumerate(faces):
            for k, c in face(key):
                yield k, -c if i % 2 else c

    return basis.matrix(target, image, basis.data.domain)


def _s_norm(basis, target):
    """s N, the extra degeneracy after the cyclic norm N = 1 + t + ... + t^n:
    the identity in front of each signed rotation t^i = (-1)^(ni) x rotation^i,
    of the object where its factor 0 ends.  B is (1 - t) s N on the full
    nerve and s N on the normalized one.

    Every factor of a key is a factor j >= 1 of each term, between the
    same objects, so when the i = 0 term is degenerate in `target` every
    term is, and the key's column is empty."""
    n = basis.degree
    unit, ends = basis.data.unit, basis.data.ends
    index = target.index

    def image(key):
        first = (unit[ends[key[0]][1]],) + key
        if first not in index and target.degenerate(first):
            return
        yield first, 1
        for i in range(1, n + 1):
            r = key[n + 1 - i :] + key[: n + 1 - i]
            yield (unit[ends[r[0]][1]],) + r, -1 if n * i % 2 else 1

    return basis.matrix(target, image, basis.data.domain)


class CyclicModule:
    """Face, degeneracy, and cyclic matrices of a cyclic k-module, degrees <= N.

    Faces and t are built once; a degeneracy is built from the basis on call.
    The degree cap, the nerve data and its domain are read off the bases.
    """

    def __init__(self, basis, faces, cyc):
        self.basis = basis
        self.max_degree = len(basis) - 1
        self.data = basis[0].data
        self.domain = self.data.domain
        self.dims = [len(b) for b in basis]
        self._faces = faces
        self._cyc = cyc

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
            t = acc = self.cyclic(n)
            for _ in range(n):
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


def additive_cyclic_nerve(objects, max_degree=DEFAULT_MAX_DEGREE, domain=None):
    """The cyclic module of the additive category spanned by the objects,
    with its simplicial and cyclic identities checked.

    An empty object list gives the zero module over `domain` (default Q);
    otherwise a given `domain` must be the objects' own.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, not {max_degree}")
    data = _NerveData(objects, domain)
    basis = [NerveBasis(data, n) for n in range(max_degree + 1)]
    faces = [[]] + [[_face(basis[n], basis[n - 1], i) for i in range(n + 1)]
                    for n in range(1, max_degree + 1)]
    module = CyclicModule(basis, faces, [_rotation(b) for b in basis])
    module.check_identities()
    return module


class MixedComplex:
    """(C, b, B) on the nerve bases `basis`: b^2 = 0 checked by the
    b-complex, B^2 = 0 and bB + Bb = 0 here, on `big_b`, the list of B_n.
    The degree cap, domain and dimensions are read off b, and the nerve
    data off the bases; it keeps no cyclic module's faces or t.
    """

    def __init__(self, b, big_b, basis):
        self.b_complex = Complex(b, "Hochschild complex")
        self.max_degree = self.b_complex.max_degree
        self.domain = self.b_complex.domain
        self.dims = self.b_complex.dims
        self.basis = basis
        self.data = basis[0].data
        self.big_b = big_b
        self._verify()

    def b(self, n):
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"b undefined in degree {n}")
        return self.b_complex.d[n]

    def B(self, n):
        if not (0 <= n < self.max_degree):
            raise ValueError(f"B undefined in degree {n}")
        return self.big_b[n]

    def _verify(self):
        b, big_b = self.b_complex.d, self.big_b
        for n in range(self.max_degree - 1):
            if not (big_b[n + 1] @ big_b[n]).is_zero():
                raise InvariantError("mixed-complex identity B^2 = 0 (sign-convention bug)", n)
        for n in range(self.max_degree):
            anti = b[n + 1] @ big_b[n]
            if n >= 1:
                anti = anti + big_b[n - 1] @ b[n]
            if not anti.is_zero():
                raise InvariantError(
                    "mixed-complex identity bB + Bb = 0 (sign-convention bug)", n
                )


def to_mixed(module):
    """Mixed complex (C, b, B) of a cyclic module.

    b is the alternating face sum and B = (1 - t) s N, with s N from
    `_s_norm`.
    """
    N = module.max_degree
    b = [Matrix(0, module.dims[0], module.domain)]
    for n in range(1, N + 1):
        acc = module.face(n, 0)
        for i in range(1, n + 1):
            acc = acc - module.face(n, i) if i % 2 else acc + module.face(n, i)
        b.append(acc)
    big = [(Matrix.identity(module.dims[n + 1], module.domain) - module.cyclic(n + 1))
           @ _s_norm(module.basis[n], module.basis[n + 1]) for n in range(N)]
    return MixedComplex(b, big, module.basis)


def normalized_mixed_complex(objects, max_degree=DEFAULT_MAX_DEGREE, domain=None):
    """Mixed complex (C, b, B = sN) of the normalized cyclic nerve of the objects.

    It is the quotient of `to_mixed` of the full nerve by the keys with an
    identity factor j >= 1, and has the same HH and HC; no key of the full
    nerve is listed.  b^2 = 0, B^2 = 0 and bB + Bb = 0 are checked where
    it is built.  The empty list and `domain` are as for
    `additive_cyclic_nerve`.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, not {max_degree}")
    data = _NerveData(objects, domain)
    basis = [NormalizedNerveBasis(data, n) for n in range(max_degree + 1)]
    b = [Matrix(0, len(basis[0]), data.domain)]
    b += [_normalized_b(basis[n], basis[n - 1]) for n in range(1, max_degree + 1)]
    big = [_s_norm(basis[n], basis[n + 1]) for n in range(max_degree)]
    return MixedComplex(b, big, basis)


class TotComplex(Complex):
    """Total complex of the (B, b)-bicomplex: Tot_n = C_n + C_(n-2) + ...

    It reads only the b-complex `b_complex` and `big_b`, the B_n of one
    `MixedComplex`, so the bases and nerve data can go before it is
    built.  It is `linalg.total_boundaries` with step 2 on columns of b
    joined by B: block j of Tot_n is C_(n-2j), b maps it to block j of
    Tot_(n-1) and B to block j - 1.  It is the one `Complex` built without
    the d^2 = 0 check, which the identities of the mixed complex imply.

    Proof.  Block j of Tot_n reaches Tot_(n-2) by b b in
    block j, by b B + B b in block j - 1 and by B B in block j - 2.  Every
    factor is b or B of the mixed complex in degrees <= N, where the
    b-complex has checked b^2 = 0 and `MixedComplex` B^2 = 0 and
    bB + Bb = 0, so each block of d_(n-1) d_n is zero.
    """

    def __init__(self, b_complex, big_b):
        N = b_complex.max_degree
        self._set_up(total_boundaries([b_complex.d] * (N // 2 + 1), [big_b] * (N // 2),
                                      2, N, b_complex.domain))


def _sbi(hh, rho):
    """HC_n = HH_n + HC_(n-2) - rho_n - rho_(n+1), degree by degree."""
    hc = []
    for n, h in enumerate(hh):
        hc.append(h + (hc[n - 2] if n >= 2 else 0) - rho[n] - rho[n + 1])
    return hc


def hochschild_cyclic_betti(b_complex, big_b):
    """(HH, HC) betti lists, degrees 0 .. N - 1, of the mixed complex with
    b-complex `b_complex` and B_n = `big_b[n]`, as for `TotComplex`.  HC
    is derived from HH through Connes' SBI sequence
    ... -> HH_n -> HC_n -> HC_(n-2) -> HH_(n-1) -> ... (Loday, Cyclic
    Homology, 2.2 and 2.5); the total complex is built and reduced only
    where the connecting map B_* can be nonzero.

    Proof.  Tot_n = C_n + Tot_(n-2), and its boundary is the block
    triangular T_n = [[b_n, beta], [0, T_(n-2)]], where beta is B_(n-2) on
    block 0 of Tot_(n-2) and zero on the other blocks.  So
    rank T_n = rank b_n + rank T_(n-2) + rho_n, with rho_n the dimension of
    (beta(ker T_(n-2)) + im b_n) / im b_n.  For x in ker T_(n-2),
    b x_0 = -B x_1, so b B x_0 = -B b x_0 = B B x_1 = 0; and beta T_(n-1) y
    = B b y_0 = -b B y_0 lies in im b_n.  So beta induces
    B_*: HC_(n-2) -> HH_(n-1), and rho_n is its rank.  Counting
    HC_n = dim Tot_n - rank T_n - rank T_(n+1) with both ranks expanded,

        HC_n = HH_n + HC_(n-2) - rho_n - rho_(n+1),

    with rho_0 = rho_1 = 0 and HC_(-1) = HC_(-2) = 0 (Tot_n = C_n below
    degree 2).  As a rank, 0 <= rho_n <= min(HH_(n-1), HC_(n-2)).

    If for every 2 <= n <= N either HH_(n-1) = 0 or HC_(n-2) = 0, every
    rho_n is zero: by induction on n, HC_(n-2) from the formula with zero
    rhos is exact, as it needs rho only up to degree n - 1.  Then no total
    complex is built.  Free actions over Q, or over F_p with p prime to
    |G|, always take this path: there HH_n = 0 for n >= 1 (Burghelea
    1985).  Otherwise the `TotComplex` is reduced in degree order,
    compressed, and rho_n = rank T_n - rank T_(n-2) - rank b_n; a rho
    outside its bounds raises `InvariantError`.

    On the point, C = k in degree 0 of the normalized nerve:

        >>> from coarsehom.controlled import generator
        >>> from coarsehom.spaces import point_space
        >>> mixed = normalized_mixed_complex([generator(point_space(), QQ)], 3)
        >>> hochschild_cyclic_betti(mixed.b_complex, mixed.big_b)
        ([1, 0, 0], [1, 0, 1])
    """
    N = b_complex.max_degree
    hh = [b_complex.homology(n).betti for n in range(N)]
    rho = [0] * (N + 1)
    hc = _sbi(hh, rho)
    if all(not hh[n - 1] or not hc[n - 2] for n in range(2, N + 1)):
        return hh, hc
    tot = TotComplex(b_complex, big_b)
    for n in range(2, N + 1):
        rho[n] = tot.boundary_rank(n) - tot.boundary_rank(n - 2) - b_complex.boundary_rank(n)
    hc = _sbi(hh, rho)
    for n in range(2, N + 1):
        if not 0 <= rho[n] <= min(hh[n - 1], hc[n - 2]):
            raise InvariantError(f"SBI bound 0 <= rank B_*: HC_{n - 2} -> HH_{n - 1}", n)
    return hh, hc
