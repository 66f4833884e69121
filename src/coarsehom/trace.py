"""The trace from the additive cyclic nerve to invariant controlled chains.

phi sends A_0 x ... x A_n to the chain whose coefficient at a controlled
tuple (x_0, ..., x_n) is the trace of the composite

    M_0(x_n) --A_n--> M_n(x_{n-1}) --> ... --> M_1(x_0) --A_0--> M_0(x_n),

walking the block supports only, so the cost tracks the sparsity of the
morphisms.  phi_matrix(n) is one depth-first pass over the trie of nerve
keys: the partial product A_0 A_1 ... A_j of a key prefix (o, m[:j + 1])
is formed once and shared by every key below it, and the last factor
enters only through tr(P A_n) summed entry by entry.  The image is an
invariant chain; phi_matrix expresses it in orbit-sum coordinates.

A `TraceContext` is the two complexes phi joins, each from its one
builder: the nerve's mixed complex from `homology.space_mixed_complex`
and the full tuple complex `chains.TupleChainComplex`, whose bases and
boundaries it reads.  It is the unnormalized complex, not XH's Moore
quotient: t and s N below do not descend to the quotient.  Nerve keys and
their factors are read through `cyclic.NerveBasis`.  The nerve pushforward
CN(f_*), a map of cyclic modules, is one `NerveBasis.matrix` call between
two nerves of one kind: two full nerves, or two normalized ones, which is
how excision uses it.

phi is a map of cyclic structures: it intertwines faces with coordinate
deletion, the cyclic operator with signed tuple rotation, and the front
identity insertion with duplicating the last coordinate up front.  The
chain-level operators live here as xc_cyclic_operator / xc_connes_operator,
B = (1 - t) s N with s N a map on tuples coded apart from the nerve's, so
that phi . B_nerve = B_chain . phi, checked as a matrix identity, compares
two independent constructions.
Note what that implies: phi . B_nerve is NOT zero in even degrees (already
on the point, phi(B(1)) = 2 (pt,pt)), so a mixed-complex map onto chains
with zero B does not exist; the honest statement is the intertwining one.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .chains import ControlledChain, TupleChainComplex, controlled_tuple_basis
from .controlled import orbit_objects, pushforward_morphism
from .cyclic import DEFAULT_MAX_DEGREE
from .homology import space_mixed_complex
from .linalg import QQ, InvariantError, Matrix, finished


def _trace_of(mat):
    """The plain sum of the diagonal of a square block."""
    return sum(mat.get(i, i) for i in range(mat.nrows))


def _trace_of_product(a, b):
    """tr(a @ b) as a plain sum of entry products, without forming a @ b."""
    return sum(v * b.get(k, i) for i, k, v in a.entries())


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

    def _phi_walk(self, n, keys):
        """(key, plain coefficients of phi) for each of `keys`, in one
        depth-first pass over their trie.

        A key's coefficient at (x_0, ..., x_n) is tr(A_0 A_1 ... A_n), where
        A_0 is the block x_0 -> x_n of factor 0 and A_j the block
        x_j -> x_(j-1) of factor j.  The stack holds, for each factor
        j < n of the current key, the partial products A_0 ... A_j of its
        prefix (o, m[:j + 1]); the next key reuses the part of the stack its
        prefix shares, so over keys in lexicographic order each partial
        product is formed once.  Factor n is never multiplied in: tr(P A_n)
        is summed entry by entry.
        """
        data = self.nerve.data
        ends = self.nerve.basis[n].ends
        adjacency = {}

        def by_target(o, j, k):
            """Blocks of basis morphism k in factor j: {target: {source: block}}."""
            s, t = ends(o, j)
            adj = adjacency.get((s, t, k))
            if adj is None:
                adj = adjacency[(s, t, k)] = {}
                for (x, y), blk in data.morphism(s, t, k).blocks.items():
                    adj.setdefault(y, {})[x] = blk
            return adj

        stack = []  # stack[j]: [(x_n, (x_0, ..., x_j), A_0 ... A_j)]
        prev = (None, ())
        for key in keys:
            o, m = key
            shared = 0
            if o == prev[0]:
                while shared < len(stack) and m[shared] == prev[1][shared]:
                    shared += 1
            del stack[shared:]
            for j in range(shared, max(n, 1)):
                adj = by_target(o, j, m[j])
                if j == 0:
                    states = [(xn, (x0,), blk)
                              for xn, row in adj.items() for x0, blk in row.items()]
                else:
                    states = [(xn, path + (x,), partial @ blk)
                              for xn, path, partial in stack[-1]
                              for x, blk in adj.get(path[-1], {}).items()]
                stack.append(states)
            prev = key
            out = {}
            if n == 0:
                for xn, path, partial in stack[0]:
                    if path[0] == xn:
                        out[path] = _trace_of(partial)
            else:
                final = by_target(o, n, m[n])
                for xn, path, partial in stack[-1]:
                    blk = final.get(path[-1], {}).get(xn)
                    if blk is not None:
                        out[path + (xn,)] = _trace_of_product(partial, blk)
            yield key, finished(out, self.domain)

    def _phi_of_basis(self, n, key):
        """Plain coefficients of phi on one nerve basis element."""
        return next(self._phi_walk(n, [key]))[1]

    def phi_matrix(self, n):
        """Matrix of phi_n from the nerve basis to invariant chain coordinates."""
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"phi undefined in degree {n}")
        if self._phi_cols[n] is None:
            basis = self.chains.bases[n]
            cols = (basis.collect(plain, self.domain)
                    for _, plain in self._phi_walk(n, self.nerve.basis[n]))
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
    index = ctx.nerve.basis[0].index
    unit = ctx.nerve.data.unit_index
    vec = finished({index[((i,), (unit[i],))]: m.dims[orb[0]]
                    for i, orb in enumerate(ctx.space.orbits()) if m.dims[orb[0]]}, dom)
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


def _xc_s_norm(tup):
    """s N on one tuple: (r_n, r_0, ..., r_n) for each signed rotation
    r = rotation^i(tup), sign (-1)^(ni); what phi makes of the nerve's s N."""
    n = len(tup) - 1
    out = {}
    for i in range(n + 1):
        r = tup[n + 1 - i :] + tup[: n + 1 - i]
        key = (r[-1],) + r
        out[key] = out.get(key, 0) + (-1 if n * i % 2 else 1)
    return out


def xc_connes_operator(space, n, domain):
    """The chain-level B = (1 - t) s N matching the nerve's B under phi."""
    basis = controlled_tuple_basis(space, n)
    basis_up = controlled_tuple_basis(space, n + 1)
    return ((Matrix.identity(len(basis_up), domain) - _xc_rotation(basis_up, domain))
            @ basis.matrix(basis_up, _xc_s_norm, domain))


# -- naturality --------------------------------------------------------------


def nerve_pushforward_matrix(src, tgt, f, n):
    """Matrix of CN(f_*) in degree n between the nerves of orbit-regular objects.

    On free actions the pushforward of an orbit-regular object along an
    equivariant controlled map is literally the orbit-regular object of the
    image orbit, so each factor's image expands in the target hom bases.
    `src` and `tgt` are cyclic modules or mixed complexes, both on full or
    both on normalized nerve bases: the pushforward sends identities to
    identities, so it descends to the normalized nerves, where the
    degenerate target keys are dropped.
    """
    if (any(ob.space is not f.source for ob in src.data.objects)
            or any(ob.space is not f.target for ob in tgt.data.objects)):
        raise ValueError("map endpoints do not match the nerves' objects")
    if type(src.basis[n]) is not type(tgt.basis[n]) or src.domain is not tgt.domain:
        raise ValueError("nerve pushforward joins two nerves of one kind and domain")
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
        return [((o2, tuple(k for k, _ in combo)), prod(v for _, v in combo))
                for combo in product(*parts)]

    return basis.matrix(tgt.basis[n], image, src.domain)
