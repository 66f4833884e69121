"""Equivariant controlled vector spaces over a finite coarse space.

An object assigns a finite-dimensional fiber to every point plus an
equivariance cocycle rho; a morphism is a block matrix supported on the
maximal entourage and compatible with the cocycles.  Hom spaces are cut out
by linear equations over the block cells, so a deterministic basis comes
straight out of the kernel of the constraint matrix.

Fibers use whatever field the caller picks (Q or F_p); all block matrices
are sparse exact matrices from the linalg module.
"""

from __future__ import annotations

from .linalg import Matrix, finished, kernel_data
from .spaces import is_morphism


class ControlledObject:
    """Fiberwise data (dims, rho) with rho(g)_x : M(x) -> M(g^-1 x)."""

    def __init__(self, space, dims, rho, domain, check=True):
        self.space = space
        self.dims = tuple(int(d) for d in dims)
        self.rho = rho
        self.domain = domain
        if len(self.dims) != space.n:
            raise ValueError("dims must assign every point a fiber dimension")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative fiber dimension")
        if check:
            self._validate()

    def _validate(self):
        sp, G = self.space, self.space.group
        for orb in sp.orbits():
            if len({self.dims[x] for x in orb}) > 1:
                raise ValueError("fiber dimensions must be constant along orbits")
        e = G.identity
        for g in range(len(G)):
            ginv = G.inv(g)
            for x in range(sp.n):
                mat = self.rho_block(g, x)
                tx = sp.act(ginv, x)
                if (mat.nrows, mat.ncols) != (self.dims[tx], self.dims[x]):
                    raise ValueError(f"rho({G.label(g)})_{sp.label(x)} has the wrong shape")
                if g == e and mat != Matrix.identity(self.dims[x], self.domain):
                    raise ValueError("rho(e) must be the identity")
        for g in range(len(G)):
            for h in range(len(G)):
                gh = G.mul(g, h)
                for x in range(sp.n):
                    gx = sp.act(G.inv(g), x)
                    lhs = self.rho_block(h, gx) @ self.rho_block(g, x)
                    if lhs != self.rho_block(gh, x):
                        raise ValueError(
                            f"cocycle fails at g={G.label(g)!r}, g'={G.label(h)!r}, x={self.space.label(x)!r}"
                        )

    def rho_block(self, g, x):
        return self.rho[g][x]

    def __eq__(self, other):
        return (
            isinstance(other, ControlledObject)
            and self.space is other.space
            and self.domain is other.domain
            and self.dims == other.dims
            and all(
                self.rho_block(g, x) == other.rho_block(g, x)
                for g in range(len(self.space.group))
                for x in range(self.space.n)
            )
        )

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"<ControlledObject dims={self.dims} over {self.domain.name}>"


def _trivial_rho(space, dims, domain):
    rho = []
    for g in range(len(space.group)):
        ginv = space.group.inv(g)
        row = []
        for x in range(space.n):
            tx = space.act(ginv, x)
            if dims[x] != dims[tx]:
                raise ValueError("trivial cocycle needs matching fiber dims along orbits")
            row.append(Matrix.identity(dims[x], domain))
        rho.append(row)
    return rho


def orbit_regular_object(space, orbit, domain):
    """Fiber k on each orbit point, identity cocycle."""
    orb = tuple(sorted(space._as_index(p) for p in orbit))
    if orb not in space.orbits():
        raise ValueError(f"{orbit!r} is not a G-orbit of the space")
    dims = [1 if x in orb else 0 for x in range(space.n)]
    return ControlledObject(space, dims, _trivial_rho(space, dims, domain), domain, check=False)


def generator(space, domain):
    """Direct sum of one orbit-regular object per orbit: fiber k everywhere."""
    dims = [1] * space.n
    return ControlledObject(space, dims, _trivial_rho(space, dims, domain), domain, check=False)


def orbit_objects(space, domain):
    return [orbit_regular_object(space, orb, domain) for orb in space.orbits()]


class ControlledMorphism:
    """Blocks A^(x -> y) : M(x) -> M'(y), supported inside u_star."""

    def __init__(self, source, target, blocks, check=True):
        if source.space is not target.space:
            raise ValueError("morphism endpoints live over different spaces")
        if source.domain is not target.domain:
            raise ValueError("morphism endpoints use different coefficient fields")
        self.source = source
        self.target = target
        self.blocks = {}
        for (x, y), mat in blocks.items():
            if mat.is_zero():
                continue
            self.blocks[(x, y)] = mat
        if check:
            self._validate()

    def _validate(self):
        sp = self.source.space
        for (x, y), mat in self.blocks.items():
            if not sp.related(x, y):
                raise ValueError(
                    f"block ({sp.label(x)!r} -> {sp.label(y)!r}) leaves the maximal entourage"
                )
            if (mat.nrows, mat.ncols) != (self.target.dims[y], self.source.dims[x]):
                raise ValueError(f"block ({x}, {y}) has the wrong shape")
        G = sp.group
        for g in range(len(G)):
            ginv = G.inv(g)
            for (x, y), mat in self.blocks.items():
                lhs = self.target.rho_block(g, y) @ mat
                rhs = self.block(sp.act(ginv, x), sp.act(ginv, y)) @ self.source.rho_block(g, x)
                if lhs != rhs:
                    raise ValueError(
                        f"equivariance fails at g={G.label(g)!r}, block ({sp.label(x)!r} -> {sp.label(y)!r})"
                    )

    def block(self, x, y):
        blk = self.blocks.get((x, y))
        if blk is None:
            return Matrix(self.target.dims[y], self.source.dims[x], self.source.domain)
        return blk

    def support(self):
        return tuple(sorted(self.blocks))

    def is_zero(self):
        return not self.blocks

    def __add__(self, other):
        if self.source is not other.source or self.target is not other.target:
            raise ValueError("sum of morphisms with different endpoints")
        keys = set(self.blocks) | set(other.blocks)
        out = {}
        for key in keys:
            s = self.block(*key) + other.block(*key)
            if not s.is_zero():
                out[key] = s
        return ControlledMorphism(self.source, self.target, out, check=False)

    def scale(self, c):
        return ControlledMorphism(
            self.source, self.target, {k: m.scale(c) for k, m in self.blocks.items()}, check=False
        )

    def __eq__(self, other):
        if not isinstance(other, ControlledMorphism):
            return NotImplemented
        if self.source is not other.source or self.target is not other.target:
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(*k) == other.block(*k) for k in keys)

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"<ControlledMorphism support={self.support()}>"


def identity_morphism(m):
    blocks = {}
    for x in range(m.space.n):
        if m.dims[x]:
            blocks[(x, x)] = Matrix.identity(m.dims[x], m.domain)
    return ControlledMorphism(m, m, blocks, check=False)


def compose(b, a):
    """b after a (matching a.target with b.source)."""
    if a.target is not b.source and a.target != b.source:
        raise ValueError("compose needs a.target == b.source")
    out = {}
    for (x, y), am in a.blocks.items():
        for (y2, z), bm in b.blocks.items():
            if y2 != y:
                continue
            prod = bm @ am
            if prod.is_zero():
                continue
            key = (x, z)
            if key in out:
                s = out[key] + prod
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = prod
    return ControlledMorphism(a.source, b.target, out, check=False)


def _hom_cells(m, mp):
    """Flat coordinates for morphism blocks: (x, y, row, col) cells in order."""
    sp = m.space
    cells = []
    for x in range(sp.n):
        if not m.dims[x]:
            continue
        for y in range(sp.n):
            if not mp.dims[y] or not sp.related(x, y):
                continue
            for r in range(mp.dims[y]):
                for c in range(m.dims[x]):
                    cells.append((x, y, r, c))
    return cells, {cell: i for i, cell in enumerate(cells)}


def _vec_to_morphism(m, mp, cells, vec):
    blocks = {}
    for idx, val in vec.items():
        x, y, r, c = cells[idx]
        blk = blocks.get((x, y))
        if blk is None:
            blk = Matrix(mp.dims[y], m.dims[x], m.domain)
            blocks[(x, y)] = blk
        blk.set(r, c, val)
    return ControlledMorphism(m, mp, blocks, check=False)


def _morphism_to_vec(a, cell_index):
    vec = {}
    for (x, y), mat in a.blocks.items():
        for r, c, v in mat.entries():
            idx = cell_index.get((x, y, r, c))
            if idx is None:
                raise ValueError("morphism has support outside the hom cell grid")
            vec[idx] = v
    return vec


class HomSpace:
    """Solved hom space with a deterministic basis and coordinate read-off.

    The basis comes from the reduced-echelon kernel of the equivariance
    constraints, so each basis vector is the unique one with value 1 at its
    own free cell; coordinates of any member are read off at the free cells
    and then verified by reconstruction.
    """

    def __init__(self, m, mp):
        if m.space is not mp.space:
            raise ValueError("hom space needs a common underlying space")
        if m.domain is not mp.domain:
            raise ValueError("hom space needs a common coefficient field")
        self.source = m
        self.target = mp
        self.cells, self.cell_index = _hom_cells(m, mp)
        dom = m.domain
        sp = m.space
        G = sp.group
        ncells = len(self.cells)
        rows = []
        for g in range(len(G)):
            if g == G.identity:
                continue
            ginv = G.inv(g)
            for x in range(sp.n):
                if not m.dims[x]:
                    continue
                gx = sp.act(ginv, x)
                rho_src = m.rho_block(g, x)
                for y in range(sp.n):
                    if not mp.dims[y] or not sp.related(x, y):
                        continue
                    gy = sp.act(ginv, y)
                    rho_tgt = mp.rho_block(g, y)
                    for r in range(mp.dims[gy]):
                        for c in range(m.dims[x]):
                            row = {}
                            for s in range(mp.dims[y]):
                                idx = self.cell_index[(x, y, s, c)]
                                row[idx] = row.get(idx, 0) + rho_tgt.get(r, s)
                            for t in range(m.dims[gx]):
                                idx = self.cell_index[(gx, gy, r, t)]
                                row[idx] = row.get(idx, 0) - rho_src.get(t, c)
                            row = finished(row, dom)
                            if row:
                                rows.append(row)
        constraints = Matrix.from_columns(rows, ncells, dom).transpose()
        if ncells:
            self._kernel, self.free_cells = kernel_data(constraints)
        else:
            self._kernel, self.free_cells = [], []
        self.basis = [_vec_to_morphism(m, mp, self.cells, vec) for vec in self._kernel]

    @property
    def dim(self):
        return len(self.basis)

    def coordinates(self, a):
        """Coordinates of a morphism in the solved basis (verified exactly)."""
        vec = _morphism_to_vec(a, self.cell_index)
        dom = self.source.domain
        coords = {}
        for i, cell in enumerate(self.free_cells):
            v = vec.get(cell, dom.zero)
            if v != dom.zero:
                coords[i] = v
        # reconstruct and compare: catches elements outside the span
        recon = {}
        for i, c in coords.items():
            for k, v in self._kernel[i].items():
                recon[k] = recon.get(k, 0) + c * v
        if finished(recon, dom) != vec:
            raise ValueError("morphism is not in the span of the hom basis")
        return coords


class FiniteAlgebra:
    """Structure constants of End(P) in a fixed basis, with unit coordinates.

    struct[i][j] is the sparse coordinate vector of basis_i . basis_j;
    associativity and the unit laws are checked on all triples/pairs.
    """

    def __init__(self, dimension, labels, struct, unit, domain, check=True):
        self.dimension = dimension
        self.labels = list(labels)
        self.struct = struct
        self.unit = dict(unit)
        self.domain = domain
        if check:
            self._validate()

    def multiply(self, u, v):
        out = {}
        for i, a in u.items():
            row = self.struct[i]
            for j, b in v.items():
                ab = a * b
                for k, c in row[j].items():
                    out[k] = out.get(k, 0) + ab * c
        return finished(out, self.domain)

    def _validate(self):
        n = self.dimension
        basis = [{i: self.domain.one} for i in range(n)]
        for i in range(n):
            if self.multiply(self.unit, basis[i]) != basis[i] or self.multiply(basis[i], self.unit) != basis[i]:
                raise ValueError(f"unit law fails at basis element {self.labels[i]!r}")
        for i in range(n):
            for j in range(n):
                ij = self.struct[i][j]
                for k in range(n):
                    left = self.multiply(ij, basis[k])
                    right = self.multiply(basis[i], self.struct[j][k])
                    if left != right:
                        raise ValueError(f"associativity fails on triple ({i}, {j}, {k})")

    def __repr__(self):
        return f"<FiniteAlgebra dim={self.dimension} over {self.domain.name}>"


def endomorphism_algebra(p):
    """End(p) as a finite algebra in the solved hom basis."""
    hom = HomSpace(p, p)
    n = hom.dim
    struct = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            struct[i][j] = hom.coordinates(compose(hom.basis[i], hom.basis[j]))
    unit = hom.coordinates(identity_morphism(p))
    labels = [f"e{i}" for i in range(n)]
    return FiniteAlgebra(n, labels, struct, unit, p.domain)


def pushforward_layout(f, m):
    """Offsets of the source summands inside each pushforward fiber."""
    offsets = [dict() for _ in range(f.target.n)]
    dims = [0] * f.target.n
    for x in range(f.source.n):
        y = f(x)
        offsets[y][x] = dims[y]
        dims[y] += m.dims[x]
    return dims, offsets


def pushforward_object(f, m):
    rep = is_morphism(f)
    if not rep.ok:
        raise ValueError(f"pushforward needs a valid morphism: {rep.violations}")
    sp_t = f.target
    dims, offsets = pushforward_layout(f, m)
    G = sp_t.group
    rho = []
    for g in range(len(G)):
        ginv = G.inv(g)
        row = []
        for y in range(sp_t.n):
            ty = sp_t.act(ginv, y)
            blk = Matrix(dims[ty], dims[y], m.domain)
            for x, off in offsets[y].items():
                gx = f.source.act(ginv, x)
                goff = offsets[ty][gx]
                for i, j, v in m.rho_block(g, x).entries():
                    blk.set(goff + i, off + j, v)
            row.append(blk)
        rho.append(row)
    return ControlledObject(sp_t, dims, rho, m.domain, check=False)


def pushforward_morphism(f, a, pushed_source=None, pushed_target=None):
    src = pushed_source if pushed_source is not None else pushforward_object(f, a.source)
    tgt = pushed_target if pushed_target is not None else pushforward_object(f, a.target)
    _, off_src = pushforward_layout(f, a.source)
    _, off_tgt = pushforward_layout(f, a.target)
    blocks = {}
    for (x, xp), mat in a.blocks.items():
        y, yp = f(x), f(xp)
        blk = blocks.get((y, yp))
        if blk is None:
            blk = Matrix(tgt.dims[yp], src.dims[y], a.source.domain)
            blocks[(y, yp)] = blk
        r0 = off_tgt[yp][xp]
        c0 = off_src[y][x]
        for i, j, v in mat.entries():
            blk.set(r0 + i, c0 + j, v)
    return ControlledMorphism(src, tgt, blocks, check=False)


def require_nerve_admissible(space, domain):
    """Guard for every nerve-level theory (Hochschild, cyclic, trace).

    Two conditions: the field characteristic must not divide the group order
    (no step averages, since `HomSpace` solves by elimination, but the
    modular answers are not yet pinned against an independent oracle), and
    the action must be free (on a non-free orbit the orbit-regular object
    need not generate: a nontrivial stabilizer character has no nonzero
    morphisms to the trivial one in any characteristic, so some objects
    would be invisible to the computation).
    """
    G = space.group
    if domain.is_field and domain.char and len(G) % domain.char == 0:
        raise ValueError(
            f"characteristic {domain.char} divides |G| = {len(G)}; "
            "nerve-level theories are not claimed correct there"
        )
    e = G.identity
    for x in range(space.n):
        if space.stabilizer(x) != (e,) and len(G) > 1:
            raise ValueError(
                f"point {space.label(x)!r} has a nontrivial stabilizer; "
                "nerve-level theories require a free action (the orbit-regular "
                "generator does not see all equivariant objects otherwise)"
            )
