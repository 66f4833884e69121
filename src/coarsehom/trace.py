"""The trace from the additive cyclic nerve to invariant controlled chains.

phi sends A_0 x ... x A_n to the chain whose coefficient at a controlled
tuple (x_0, ..., x_n) is the trace of the composite

    M_0(x_n) --A_n--> M_n(x_{n-1}) --> ... --> M_1(x_0) --A_0--> M_0(x_n),

walking the block supports only, so the cost tracks the sparsity of the
morphisms.  The image is an invariant chain; phi_matrix expresses it in
orbit-sum coordinates.  A `TraceContext` is the two complexes phi joins,
each from its one builder: the nerve's mixed complex from
`homology.space_mixed_complex` and the full tuple complex
`chains.TupleChainComplex`, whose bases and boundaries it reads.  It is
the unnormalized complex, not XH's Moore quotient: t and the front
insertion below do not descend to the quotient.  Nerve
keys and their factors are read through `cyclic.NerveBasis`, and the nerve
pushforward CN(f_*), a map of cyclic modules, is one `NerveBasis.matrix`
call between two nerves.

phi is a map of cyclic structures: it intertwines faces with coordinate
deletion, the cyclic operator with signed tuple rotation, and the front
identity insertion with duplicating the last coordinate up front.  The
chain-level operators live here as xc_cyclic_operator / xc_connes_operator
(the latter through the nerve's own `cyclic.connes_operator`) so that
phi . B_nerve = B_chain . phi can be checked as a matrix identity.
Note what that implies: phi . B_nerve is NOT zero in even degrees (already
on the point, phi(B(1)) = 2 (pt,pt)), so a mixed-complex map onto chains
with zero B does not exist; the honest statement is the intertwining one.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .chains import ControlledChain, TupleChainComplex, controlled_tuple_basis
from .controlled import orbit_objects, pushforward_morphism
from .cyclic import DEFAULT_MAX_DEGREE, connes_operator
from .homology import space_mixed_complex
from .linalg import QQ, InvariantError, Matrix, finished


def _trace_of(mat):
    """The plain sum of the diagonal of a square block."""
    return sum(mat.get(i, i) for i in range(mat.nrows))


class TraceContext:
    """The nerve's mixed complex and the coarse chain complex, with phi cached."""

    def __init__(self, space, domain=QQ, objects=None, max_degree=DEFAULT_MAX_DEGREE):
        self.space = space
        self.domain = domain
        self.max_degree = max_degree
        self.mixed = space_mixed_complex(space, max_degree, domain, objects)
        self.nerve = self.mixed.source
        self.objects = self.nerve.data.objects
        self.chains = TupleChainComplex(space, max_degree, domain)
        self._phi_cols = [None] * (max_degree + 1)

    # -- phi ---------------------------------------------------------------

    def _phi_of_basis(self, n, key):
        """Plain coefficients of phi on one nerve basis element."""
        factors = self.nerve.basis[n].factors(key)
        out = {}

        def put(tup, val):
            out[tup] = out.get(tup, 0) + val

        if n == 0:
            for (x, y), blk in factors[0].blocks.items():
                if x == y:
                    put((x,), _trace_of(blk))
            return finished(out, self.domain)
        closer = factors[0]
        # adjacency[j - 1]: source point -> [(target point, block)] for factor j
        adjacency = []
        for j in range(1, n + 1):
            adj = {}
            for (src, tgt), blk in factors[j].blocks.items():
                adj.setdefault(src, []).append((tgt, blk))
            adjacency.append(adj)

        def walk(j, partial, trail):
            # trail = [x_n, x_{n-1}, ..., x_{j-1}]; partial: M_0(x_n) -> M_j(x_{j-1})
            cur = trail[-1]
            if j == 1:
                blk = closer.blocks.get((cur, trail[0]))
                if blk is not None:
                    put(tuple(reversed(trail)), _trace_of(blk @ partial))
                return
            for tgt, blk in adjacency[j - 2].get(cur, ()):
                walk(j - 1, blk @ partial, trail + [tgt])

        for (xn, xnm1), blk in factors[n].blocks.items():
            walk(n, blk, [xn, xnm1])
        return finished(out, self.domain)

    def phi_matrix(self, n):
        """Matrix of phi_n from the nerve basis to invariant chain coordinates."""
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"phi undefined in degree {n}")
        if self._phi_cols[n] is None:
            basis = self.chains.bases[n]
            cols = [basis.collect(self._phi_of_basis(n, key), self.domain)
                    for key in self.nerve.basis[n]]
            self._phi_cols[n] = Matrix.from_columns(cols, len(basis), self.domain)
        return self._phi_cols[n]

    def phi(self, n, vector):
        """phi of a nerve vector (sparse dict over the degree-n basis)."""
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"phi undefined in degree {n}")
        plain = {}
        for idx, coeff in vector.items():
            part = self._phi_of_basis(n, self.nerve.basis[n][idx])
            for tup, val in part.items():
                plain[tup] = plain.get(tup, 0) + coeff * val
        return ControlledChain(self.space, n, plain, self.domain, check=False)

    def boundary_matrix(self, n):
        """The chain boundary from degree n to n - 1, from the context's complex."""
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"boundary undefined in degree {n}")
        return self.chains.d[n]

    # -- the point section ---------------------------------------------------

    def iota(self, n, c):
        """Coordinates of (.c) x (.1) x ... x (.1) on the one-point space."""
        if self.space.n != 1 or len(self.space.group) != 1:
            raise ValueError("iota is defined on the one-point space with trivial group")
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"iota undefined in degree {n}")
        c = self.domain.coerce(c)
        if c == self.domain.zero:
            return {}
        return {0: c}


def dennis_trace_k0(ctx, m):
    """K_0-level Dennis trace: the HH_0 vector of id_m and its phi image.

    The object decomposes over the orbit-regular list with multiplicity
    equal to its fiber dimension on each orbit (the action is free, so
    every cocycle on an orbit trivializes); [id_m] is the matching
    combination of the identity classes, and phi sends it to the dimension
    chain sum over x of dim m(x) . (x,).
    """
    if m.space is not ctx.space or m.domain is not ctx.domain:
        raise ValueError("object lives outside the trace context")
    if ctx.objects != orbit_objects(ctx.space, ctx.domain):
        raise ValueError("dennis_trace_k0 needs the orbit-regular object list")
    dom = ctx.domain
    vec = {}
    index = ctx.nerve.basis[0].index
    for i, orb in enumerate(ctx.space.orbits()):
        mult = m.dims[orb[0]]
        if not mult:
            continue
        for k, coeff in ctx.nerve.data.unit(i).items():
            idx = index[((i,), (k,))]
            vec[idx] = vec.get(idx, 0) + mult * coeff
    vec = finished(vec, dom)
    image = ctx.phi(0, vec)
    expected = {
        (x,): dom.coerce(m.dims[x]) for x in range(ctx.space.n) if m.dims[x]
    }
    if image.coefficients != expected:
        raise InvariantError("phi of the identity class = the dimension chain", 0)
    return vec, image


# -- chain-level cyclic structure -------------------------------------------


def _xc_rotation(basis, domain):
    """`xc_cyclic_operator` on a basis already enumerated."""
    sign = -1 if basis.degree % 2 else 1
    return basis.matrix(basis, lambda tup: {(tup[-1],) + tup[:-1]: sign}, domain)


def xc_cyclic_operator(space, n, domain):
    """Signed rotation (x_0..x_n) -> (-1)^n (x_n, x_0, ..., x_{n-1})."""
    return _xc_rotation(controlled_tuple_basis(space, n), domain)


def _xc_front_insert(basis, basis_up, domain):
    """(x_0..x_n) -> (x_n, x_0, ..., x_n): what phi makes of the extra degeneracy."""
    return basis.matrix(basis_up, lambda tup: {(tup[-1],) + tup: domain.one}, domain)


def xc_connes_operator(space, n, domain):
    """The chain-level (1 - t) s N operator matching the nerve's B under phi."""
    basis = controlled_tuple_basis(space, n)
    basis_up = controlled_tuple_basis(space, n + 1)
    return connes_operator(n, _xc_rotation(basis, domain),
                           _xc_front_insert(basis, basis_up, domain),
                           _xc_rotation(basis_up, domain))


# -- naturality --------------------------------------------------------------


def nerve_pushforward_matrix(src, tgt, f, n):
    """Matrix of CN(f_*) in degree n between the nerves of orbit-regular objects.

    On free actions the pushforward of an orbit-regular object along an
    equivariant controlled map is literally the orbit-regular object of the
    image orbit, so each factor's image expands in the target hom bases.
    """
    if (any(ob.space is not f.source for ob in src.data.objects)
            or any(ob.space is not f.target for ob in tgt.data.objects)):
        raise ValueError("map endpoints do not match the nerves' objects")
    tgt_orbits = f.target.orbits()
    orbit_map = []
    for orb in f.source.orbits():
        y = f(orb[0])
        orbit_map.append(next(i for i, t in enumerate(tgt_orbits) if y in t))
    basis = src.basis[n]
    coord_cache = {}

    def coords(s, t, k):
        """Sorted target coordinates of the image of basis morphism k of Hom(P_s, P_t)."""
        got = coord_cache.get((s, t, k))
        if got is None:
            pushed = pushforward_morphism(
                f,
                src.data.morphism(s, t, k),
                pushed_source=tgt.data.objects[orbit_map[s]],
                pushed_target=tgt.data.objects[orbit_map[t]],
            )
            got = sorted(tgt.data.coordinates(orbit_map[s], orbit_map[t], pushed).items())
            coord_cache[(s, t, k)] = got
        return got

    def image(key):
        o, m = key
        o2 = tuple(orbit_map[i] for i in o)
        parts = [coords(*basis.ends(o, j), k) for j, k in enumerate(m)]
        # each combination of target basis morphisms is a different key
        return {(o2, tuple(k for k, _ in combo)): prod(v for _, v in combo)
                for combo in product(*parts)}

    return basis.matrix(tgt.basis[n], image, src.domain)
