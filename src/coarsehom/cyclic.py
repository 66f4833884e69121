"""Cyclic modules, mixed complexes, and Hochschild/cyclic homology.

The additive cyclic nerve of a list of controlled objects is built from
its nerve data, `_NerveData`: basis dimensions per hom space, composition
coordinates, and the basis index of each identity.  One object gives the
cyclic module of its endomorphism algebra.  Degree n of the nerve is the direct sum, over
(n+1)-tuples of objects, of Hom(P_{o1},P_{o0}) x ... x Hom(P_{o0},P_{on}).

The degree-n basis is one value, `NerveBasis`: the keys (object tuple,
morphism index tuple), enumerated lexicographically so every matrix is
reproducible bit for bit, and their index.  An object tuple with a zero
hom factor has no keys, so the enumeration visits only the closed walks in
the support graph of Hom, not all r^(n+1) tuples of r objects, and costs
per nonempty tuple.  The basis holds the one rule for the hom space of
each factor (`ends`), and every nerve operator (the faces, t, the
degeneracies, s N, and the trace's nerve pushforward) is one `matrix` call
with an image function on keys.  The identity of each object is one basis
index, `unit_index`, so inserting an identity is a key map.  Other modules
read keys, factors and coordinates through the basis and the nerve data.

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
    """Hom-space dimensions, composition coordinates and unit indices for a
    nerve (see `additive_cyclic_nerve` for the empty list and `domain`).

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
        self._comp = {}
        self._pivot = {}  # object -> (k, u): e_k of End(P_a) is the identity u
        for a, ob in enumerate(self.objects):
            u = self.hom[a][a].coordinates(identity_morphism(ob))
            k = min(u, default=None)
            if u and u != {k: domain.one}:
                self._pivot[a] = (k, u)
        self.unit_index = [self._unit_index(a) for a in range(r)]
        self._check_unit_law()

    @property
    def count(self):
        return len(self.objects)

    def dim(self, s, t):
        return self.hom[s][t].dim

    def morphism(self, s, t, k):
        """Basis morphism k of Hom(P_s, P_t)."""
        if s == t and s in self._pivot and self._pivot[s][0] == k:
            return identity_morphism(self.objects[s])
        return self.hom[s][t].basis[k]

    def coordinates(self, s, t, mor):
        """Coordinates of a morphism P_s -> P_t in the hom basis."""
        coords = self.hom[s][t].coordinates(mor)
        if s != t or s not in self._pivot or self._pivot[s][0] not in coords:
            return coords
        # v = sum v_i e_i with e_k = (u - sum_(i != k) u_i e_i) / u_k
        k, u = self._pivot[s]
        ck = coords[k] * self.domain.coerce(Fraction(1) / u[k])
        out = dict(coords)
        for i, ui in u.items():
            out[i] = out.get(i, 0) - ui * ck
        out[k] = ck
        return finished(out, self.domain)

    def comp(self, s, mid, t, i, j):
        """Coordinates of basis_i . basis_j, basis_i in Hom(mid,t), basis_j in Hom(s,mid)."""
        key = (s, mid, t, i, j)
        out = self._comp.get(key)
        if out is None:
            out = self.coordinates(s, t, compose(self.morphism(mid, t, i),
                                                 self.morphism(s, mid, j)))
            self._comp[key] = out
        return out

    def _unit_index(self, a):
        """k with e_k the identity of object a; None for a zero object,
        whose End is 0."""
        u = self.coordinates(a, a, identity_morphism(self.objects[a]))
        if not u and not self.dim(a, a):
            return None
        k = min(u, default=None)
        if u != {k: self.domain.one}:
            raise InvariantError(f"the identity of nerve object {a} is one basis vector")
        return k

    def _check_unit_law(self):
        one = self.domain.one
        units = self.unit_index
        for s in range(self.count):
            for t in range(self.count):
                for i in range(self.dim(s, t)):
                    e = {i: one}
                    if (self.comp(s, t, t, units[t], i) != e
                            or self.comp(s, s, t, i, units[s]) != e):
                        raise InvariantError(
                            f"unit law id . f = f = f . id on Hom(P_{s}, P_{t})")


class NerveBasis(list):
    """The degree-n basis: (object tuple o, morphism tuple m) keys in
    lexicographic order, with their index.

    Factor j of a key is basis morphism m[j] of Hom(P_o[j+1], P_o[j]),
    indices mod n + 1 (see `ends`).  Every nerve operator is one `matrix`
    call with an image function on keys.

    Only the object tuples whose factors all have a nonempty index range
    carry keys.  They are the closed walks o[0] -> o[1] -> ... -> o[n] ->
    o[0] in the support graph of Hom, where factor j may step from a to c
    when its range on Hom(P_c, P_a) is nonempty.  `_walks` lists them
    depth first in increasing object order, which is the lexicographic
    order of all tuples with the empty ones left out, so each tuple's
    ranges are computed once and the cost is per nonempty tuple.  The size
    is counted against the cap during the walk, before any key is listed.
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
            tuples.append((o, ranges))
        for o, ranges in tuples:
            self.extend((o, m) for m in product(*ranges))
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
        """The morphism indices of factor j, in Hom(P_s, P_t)."""
        return range(self.data.dim(s, t))

    def _ranges(self, o):
        """The morphism indices of each factor of the keys on object tuple o."""
        return [self._factor_range(j, *self.ends(o, j)) for j in range(self.degree + 1)]

    def ends(self, o, j):
        """(source, target) objects of factor j of a key with object tuple o."""
        n = self.degree
        return o[(j + 1) % (n + 1)], o[j]

    def factors(self, key):
        """The morphisms of a key, factor by factor."""
        o, m = key
        return [self.data.morphism(*self.ends(o, j), k) for j, k in enumerate(m)]

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

    def _factor_range(self, j, s, t):
        indices = super()._factor_range(j, s, t)
        if j and s == t:
            unit = self.data.unit_index[s]
            return [k for k in indices if k != unit]
        return indices

    def degenerate(self, key):
        o, m = key
        unit = self.data.unit_index
        return any(m[j] == unit[o[j]] and self.ends(o, j)[0] == o[j]
                   for j in range(1, self.degree + 1))


def _face_image(basis, i):
    """d_i composes factors i and i + 1; d_n puts the composite in front."""
    n = basis.degree
    comp = basis.data.comp

    def image(key):
        o, m = key
        if i < n:
            s, mid = basis.ends(o, i + 1)
            o2 = o[: i + 1] + o[i + 2 :]
            return [((o2, m[:i] + (k,) + m[i + 2 :]), c)
                    for k, c in comp(s, mid, o[i], m[i], m[i + 1]).items()]
        o2 = (o[n],) + o[1:n]
        return [((o2, (k,) + m[1:n]), c) for k, c in comp(o[1], o[0], o[n], m[n], m[0]).items()]

    return image


def _face(basis, target, i):
    return basis.matrix(target, _face_image(basis, i), basis.data.domain)


def _rotation(basis):
    """t = (-1)^n x the cyclic rotation of the factors."""
    n = basis.degree
    sign = -1 if n % 2 else 1

    def image(key):
        o, m = key
        return (((o[n],) + o[:n], (m[n],) + m[:n]), sign),

    return basis.matrix(basis, image, basis.data.domain)


def _insert_unit(basis, target, i):
    """Insert the identity basis vector after factor i, coefficient one: s_i
    for 0 <= i <= n, and for i = -1 the identity of the first object in
    front (the extra degeneracy s)."""
    unit = basis.data.unit_index
    one = basis.data.domain.one

    def image(key):
        o, m = key
        a = basis.ends(o, i)[0]
        return ((o[: i + 1] + (a,) + o[i + 1 :], m[: i + 1] + (unit[a],) + m[i + 1 :]), one),

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
    the identity in front of each signed rotation t^i = (-1)^(ni) x rotation^i.
    B is (1 - t) s N on the full nerve and s N on the normalized one.

    Every factor of a key is a factor j >= 1 of each term, between the
    same objects, so when the i = 0 term is degenerate in `target` every
    term is, and the key's column is empty."""
    n = basis.degree
    unit = basis.data.unit_index
    index = target.index

    def image(key):
        o, m = key
        first = ((o[0],) + o, (unit[o[0]],) + m)
        if first not in index and target.degenerate(first):
            return
        yield first, 1
        for i in range(1, n + 1):
            cut = n + 1 - i
            o2 = o[cut:] + o[:cut]
            yield ((o2[0],) + o2, (unit[o2[0]],) + m[cut:] + m[:cut]), -1 if n * i % 2 else 1

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
    data off the bases.
    """

    def __init__(self, b, big_b, basis, source=None):
        self.b_complex = Complex(b, "Hochschild complex")
        self.max_degree = self.b_complex.max_degree
        self.domain = self.b_complex.domain
        self.dims = self.b_complex.dims
        self.basis = basis
        self.data = basis[0].data
        self.big_b = big_b
        self.source = source
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
    return MixedComplex(b, big, module.basis, source=module)


def normalized_mixed_complex(objects, max_degree=DEFAULT_MAX_DEGREE, domain=None):
    """Mixed complex (C, b, B = sN) of the normalized cyclic nerve of the objects.

    It is the quotient of `to_mixed` of the full nerve by the keys with an
    identity factor j >= 1, and has the same HH and HC; no key of the full
    nerve is listed.  b^2 = 0, B^2 = 0 and bB + Bb = 0 are checked where
    it is built.  The empty list and `domain` are as for
    `additive_cyclic_nerve`.
    """
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
