"""Structural checks (invariance, excision, u-continuity, agreement, Morita)
and the randomized generators of test spaces backing them.

Every check returns an AxiomReport rather than asserting, so callers can
collect results; the randomized generators only emit free actions whose
nerve stays small enough to handle at degree four.
"""

import random
from dataclasses import dataclass, field

from .bar_oracle import bar_complex
from .chains import CoarseChainComplex, pushforward_matrix
from .controlled import HomSpace, generator, orbit_objects
from .groups import cyclic_group, symmetric_group, trivial_group
from .homology import nerve_profiles, ordinary_profile, space_mixed_complex
from .linalg import QQ, ZZ, Complex, InvariantError, Matrix
from .spaces import (
    GBornCoarseSpace,
    SpaceMap,
    g_can_min,
    is_complementary_pair,
    is_coarse_equivalence,
    is_flasque,
    is_morphism,
    restrict_entourage,
    subspace,
)
from .trace import nerve_pushforward_matrix


@dataclass
class AxiomReport:
    name: str
    ok: bool
    details: list = field(default_factory=list)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        tail = f": {'; '.join(self.details)}" if self.details else ""
        return f"<AxiomReport {self.name} {status}{tail}>"


# -- iterated mapping cones ---------------------------------------------------


def _iterated_cone(stages, maps, max_degree, domain):
    """Total complex of C^0 <- C^1 <- ... with stage s shifted by s.

    stages[s][n] is the boundary C^s_n -> C^s_{n-1}; maps[s][k] is the
    degreewise chain map C^{s+1}_k -> C^s_k, and consecutive maps must
    compose to zero on the nose.  Returns the total complex.
    """
    ns = len(stages)
    out = [Matrix.zeros(0, stages[0][0].ncols, domain)]
    for n in range(1, max_degree + 1):
        # block s of degree n is C^s_(n-s): every block row holds a boundary
        # and every block column a boundary or a map, so all sizes are fixed
        cols = min(n, ns - 1) + 1
        grid = [[None] * cols for _ in range(min(n - 1, ns - 1) + 1)]
        for s in range(cols):
            k = n - s
            if k >= 1:
                grid[s][s] = stages[s][k] if s % 2 == 0 else stages[s][k].scale(-1)
            if s >= 1:
                grid[s - 1][s] = maps[s - 1][k]
        out.append(Matrix.block(grid, domain))
    return Complex(out, "iterated cone")


def _acyclic_degrees(cone, max_degree):
    bad = []
    for n in range(max_degree):
        h = cone.homology(n)
        if h.betti != 0 or h.torsion != ():
            bad.append(f"degree {n}: betti {h.betti}, torsion {h.torsion}")
    return bad


# -- the individual checks ----------------------------------------------------


def check_coarse_invariance(f, max_degree=3, chain_domain=ZZ, nerve_domain=QQ):
    """Equivalences preserve all three theories; the ordinary cone is acyclic."""
    details = []
    if not is_coarse_equivalence(f):
        return AxiomReport("coarse_invariance", False, ["map is not a coarse equivalence"])
    x, y = f.source, f.target
    cx = CoarseChainComplex(x, max_degree, chain_domain)
    cy = CoarseChainComplex(y, max_degree, chain_domain)
    px = [(h.betti, h.torsion) for h in map(cx.homology, range(max_degree))]
    py = [(h.betti, h.torsion) for h in map(cy.homology, range(max_degree))]
    if px != py:
        details.append(f"ordinary profiles differ: {px} vs {py}")
    nx = nerve_profiles(x, max_degree, nerve_domain)
    ny = nerve_profiles(y, max_degree, nerve_domain)
    if nx[0] != ny[0]:
        details.append(f"hochschild profiles differ: {nx[0]} vs {ny[0]}")
    if nx[1] != ny[1]:
        details.append(f"cyclic profiles differ: {nx[1]} vs {ny[1]}")
    push = [pushforward_matrix(cx, cy, f, n) for n in range(max_degree + 1)]
    cone = _iterated_cone([cy.d, cx.d], [push], max_degree, chain_domain)
    details += [f"cone {line}" for line in _acyclic_degrees(cone, max_degree)]
    return AxiomReport("coarse_invariance", not details, details)


def _excision_cone(d, maps, push, max_degree, domain):
    """The iterated cone of C(A n B) -> C(A) + C(B) -> C(X) for a square of
    inclusions ja, jb, ia, ib (`maps`, in that order).

    d holds the boundaries of X, A, B and A n B by degree, and push(map, n)
    is the degree-n matrix of one inclusion.
    """
    dx, da, db, dab = d
    ja, jb, ia, ib = maps
    degrees = range(max_degree + 1)
    mid = [Matrix.block([[da[n], None], [None, db[n]]], domain) for n in degrees]
    u1 = [Matrix.block([[push(ja, n), push(jb, n).scale(-1)]], domain) for n in degrees]
    u2 = [Matrix.block([[push(ia, n)], [push(ib, n)]], domain) for n in degrees]
    return _iterated_cone([dx, mid, dab], [u1, u2], max_degree, domain)


def _inclusion(space, subset):
    sub = subspace(space, subset)
    return sub, SpaceMap(sub, space, sorted({space._as_index(p) for p in subset}))


def check_excision(space, z, y, max_degree=3, chain_domain=ZZ, nerve_domain=QQ):
    """For a complementary pair, the squares of inclusions are homotopy pushouts."""
    if not is_complementary_pair(space, z, [y]):
        return AxiomReport("excision", False, ["not a complementary pair"])
    details = []
    z_idx = sorted({space._as_index(p) for p in z})
    y_idx = sorted({space._as_index(p) for p in y})
    ab_idx = sorted(set(z_idx) & set(y_idx))
    a_space, ja = _inclusion(space, z_idx)
    b_space, jb = _inclusion(space, y_idx)
    ab_space, _ = _inclusion(space, ab_idx)
    pos_a = {p: i for i, p in enumerate(z_idx)}
    pos_b = {p: i for i, p in enumerate(y_idx)}
    ia = SpaceMap(ab_space, a_space, [pos_a[p] for p in ab_idx])
    ib = SpaceMap(ab_space, b_space, [pos_b[p] for p in ab_idx])
    spaces = (space, a_space, b_space, ab_space)
    cx, ca, cb, cab = (CoarseChainComplex(sp, max_degree, chain_domain) for sp in spaces)
    maps = ((ca, cx, ja), (cb, cx, jb), (cab, ca, ia), (cab, cb, ib))
    cone = _excision_cone([c.d for c in (cx, ca, cb, cab)], maps,
                          lambda m, n: pushforward_matrix(*m, n), max_degree, chain_domain)
    details += [f"ordinary {line}" for line in _acyclic_degrees(cone, max_degree)]
    mixed = [space_mixed_complex(sp, max_degree, nerve_domain) for sp in spaces]
    d = [[m.b(n) for n in range(max_degree + 1)] for m in mixed]
    nx, na, nb, nab = (m.source for m in mixed)
    maps = ((na, nx, ja), (nb, nx, jb), (nab, na, ia), (nab, nb, ib))
    cone = _excision_cone(d, maps, lambda m, n: nerve_pushforward_matrix(*m, n),
                          max_degree, nerve_domain)
    details += [f"hochschild {line}" for line in _acyclic_degrees(cone, max_degree)]
    return AxiomReport("excision", not details, details)


def check_u_continuity(space, max_degree=2, domain=ZZ):
    """Homology along an exhausting chain of entourages reaches the full value."""
    gens = list(space.entourage_generators)
    ng = len(space.group)
    full = [(h.betti, h.torsion) for h in ordinary_profile(space, max_degree, domain)]
    profiles = []
    for k in range(len(gens) + 1):
        sat = sorted({(space.act(g, a), space.act(g, b)) for g in range(ng) for a, b in gens[:k]})
        xk = restrict_entourage(space, sat)
        profiles.append([(h.betti, h.torsion) for h in ordinary_profile(xk, max_degree, domain)])
    details = []
    if profiles[-1] != full:
        details.append(f"exhaustion tops out at {profiles[-1]}, space has {full}")
    settle = len(profiles) - 1
    while settle > 0 and profiles[settle - 1] == full:
        settle -= 1
    details.append(f"stabilizes after {settle} of {len(gens)} generators")
    return AxiomReport("u_continuity", profiles[-1] == full, details)


def check_group_algebra_agreement(group, max_degree=3, domain=QQ):
    """The nerve on the group-as-space matches the bar-resolution oracle."""
    hh_p, hc_p = nerve_profiles(g_can_min(group), max_degree, domain)
    oracle = bar_complex(group.table, max_degree, domain)
    details = []
    for n in range(max_degree):
        if hh_p[n] != oracle.hh(n):
            details.append(f"HH_{n}: nerve {hh_p[n]} vs bar {oracle.hh(n)}")
        if hc_p[n] != oracle.hc(n):
            details.append(f"HC_{n}: nerve {hc_p[n]} vs bar {oracle.hc(n)}")
    return AxiomReport("group_algebra_agreement", not details, details)


def check_flasqueness(space):
    """No nonempty finite space admits a flasqueness witness; the empty one does."""
    expected = space.n == 0
    got = is_flasque(space)
    details = [] if got == expected else [f"is_flasque returned {got} on {space.n} points"]
    return AxiomReport("flasqueness", got == expected, details)


def all_partition_spaces(max_points=3):
    """Every coarse structure on at most max_points points (trivial group)."""
    out = []
    grp = trivial_group()
    for n in range(max_points + 1):
        for rgs in _restricted_growth_strings(n):
            blocks = {}
            for i, b in enumerate(rgs):
                blocks.setdefault(b, []).append(i)
            gens = []
            for members in blocks.values():
                gens += [(members[i], members[i + 1]) for i in range(len(members) - 1)]
            out.append(
                GBornCoarseSpace([f"q{i}" for i in range(n)], gens, grp, [list(range(n))])
            )
    return out


def _restricted_growth_strings(n):
    if n == 0:
        yield ()
        return
    def rec(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from rec(prefix + [b], max(top, b))
    yield from rec([0], 0)


def check_morita(space, max_degree=3, domain=QQ):
    """One big object or one object per orbit: the nerve homology agrees."""
    multi = nerve_profiles(space, max_degree, domain)
    single = nerve_profiles(space, max_degree, domain, objects=[generator(space, domain)])
    details = []
    if multi[0] != single[0]:
        details.append(f"hochschild: {multi[0]} vs {single[0]}")
    if multi[1] != single[1]:
        details.append(f"cyclic: {multi[1]} vs {single[1]}")
    return AxiomReport("morita", not details, details)


def check_identity_suite(space, max_degree=4, domain=QQ):
    """Simplicial/cyclic identities and the mixed-complex identities all hold."""
    try:
        space_mixed_complex(space, max_degree, domain)
    except InvariantError as e:
        return AxiomReport("identity_suite", False, [str(e)])
    return AxiomReport("identity_suite", True, [])


# -- randomized generators ----------------------------------------------------

_GROUP_MAKERS = (
    trivial_group,
    lambda: cyclic_group(2),
    lambda: cyclic_group(3),
    lambda: symmetric_group(3),
)


def _free_space(group, n_orbits, gen_pairs, prefix="p"):
    g = len(group)
    n = n_orbits * g
    action = []
    for h in range(g):
        row = []
        for o in range(n_orbits):
            for k in range(g):
                row.append(o * g + group.mul(h, k))
        action.append(row)
    return GBornCoarseSpace([f"{prefix}{i}" for i in range(n)], gen_pairs, group, action)


def nerve_fits_budget(space, domain=QQ, end_cap=100_000, nerve_cap=8000):
    """Degree-four nerves must stay workable for both object conventions."""
    objs = orbit_objects(space, domain)
    r = len(objs)
    h = [[HomSpace(objs[s], objs[t]).dim for t in range(r)] for s in range(r)]
    power = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(5):
        power = [
            [sum(power[i][k] * h[k][j] for k in range(r)) for j in range(r)]
            for i in range(r)
        ]
    nerve_dim = sum(power[i][i] for i in range(r))
    end_dim = sum(sum(row) for row in h)
    return end_dim ** 5 <= end_cap and nerve_dim <= nerve_cap


def random_space(rng, max_points=6, groups=_GROUP_MAKERS):
    """A random free G-space on at most max_points points, nerve-budgeted."""
    while True:
        group = rng.choice(groups)()
        g = len(group)
        if g > max_points:
            continue
        n = rng.randint(1, max_points // g) * g
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        space = _free_space(group, n // g, pairs)
        if nerve_fits_budget(space):
            return space


def random_equivalence(rng, max_points=6):
    """A non-identity coarse equivalence built by gluing on redundant orbits."""
    makers = [m for m in _GROUP_MAKERS if 2 * len(m()) <= max_points]
    while True:
        group = rng.choice(makers)()
        g = len(group)
        total = max_points // g
        r_y = rng.randint(1, total - 1)
        extra = rng.randint(1, total - r_y)
        n_y = r_y * g
        y_pairs = [(rng.randrange(n_y), rng.randrange(n_y)) for _ in range(rng.randint(0, 2))]
        y = _free_space(group, r_y, y_pairs, prefix="y")
        sources = [rng.randrange(r_y) for _ in range(extra)]
        x_pairs = list(y_pairs) + [
            ((r_y + c) * g, sources[c] * g) for c in range(extra)
        ]
        x = _free_space(group, r_y + extra, x_pairs, prefix="x")
        assignment = list(range(n_y))
        for c in range(extra):
            assignment += [sources[c] * g + k for k in range(g)]
        f = SpaceMap(x, y, assignment)
        if not (nerve_fits_budget(x) and nerve_fits_budget(y)):
            continue
        assert is_morphism(f).ok
        assert is_coarse_equivalence(f)
        return f


def random_complementary_pair(rng, max_points=6):
    """(space, z, y) with y component-closed and z covering the rest."""
    space = random_space(rng, max_points)
    comps = space.components()
    seen = set()
    classes = []
    for comp in comps:
        if comp in seen:
            continue
        cls = {tuple(sorted(space.act(g, p) for p in comp)) for g in range(len(space.group))}
        seen |= cls
        classes.append(cls)
    y_pts = set()
    for cls in classes:
        if rng.random() < 0.5:
            for comp in cls:
                y_pts.update(comp)
    z_pts = set(range(space.n)) - y_pts
    for orb in space.orbits():
        if set(orb) <= y_pts and rng.random() < 0.3:
            z_pts.update(orb)
    assert is_complementary_pair(space, sorted(z_pts), [sorted(y_pts)])
    return space, sorted(z_pts), sorted(y_pts)


def fuzz_suite(seed=0, budget=5, max_degree=3):
    """One bundle of randomized structural checks per budget unit."""
    rng = random.Random(seed)
    reports = []
    for i in range(budget):
        f = random_equivalence(rng)
        r = check_coarse_invariance(f, max_degree)
        reports.append(AxiomReport(f"invariance[{i}]", r.ok, r.details))
        space, z, yset = random_complementary_pair(rng)
        r = check_excision(space, z, yset, max_degree)
        reports.append(AxiomReport(f"excision[{i}]", r.ok, r.details))
        probe = random_space(rng)
        for rep in (
            check_morita(probe, max_degree),
            check_identity_suite(probe, max_degree),
            check_u_continuity(probe),
            check_flasqueness(probe),
        ):
            reports.append(AxiomReport(f"{rep.name}[{i}]", rep.ok, rep.details))
    return reports
