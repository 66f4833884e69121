"""Finite models of equivariant bornological coarse spaces.

On a finite carrier the whole filtered coarse structure is captured by its
maximal entourage: the reflexive-symmetric-transitive closure of the
generating pairs and all their group translates.  That closure is an
equivalence relation, so a space stores the partition of its points into
coarse components and answers entourage-membership queries from it.  The
bornology on a finite carrier closes up to the full power set; generators
are kept only for display and for the product construction.

All predicates from the structural layer live here: morphism validation,
closeness, coarse equivalence, flasqueness, and complementary pairs.  Each
is answered from the component partition, the orbits and the stabilizers;
only the flasqueness oracle `has_flasqueness_witness` searches.
"""

from __future__ import annotations

from itertools import product

from .groups import trivial_group
from .linalg import InvariantError

SEARCH_BOUND = 200_000  # self-maps the flasqueness witness search may try


class GBornCoarseSpace:
    """Immutable finite G-bornological coarse space.

    points: list of hashable labels (index order is the canonical order).
    entourage_generators: iterable of (label, label) pairs.
    bornology_generators: iterable of label collections; default singletons.
    group: FiniteGroup.
    action: |G| x |X| matrix of point indices, action[g][x] = g.x.
    """

    def __init__(self, points, entourage_generators, group, action, bornology_generators=None):
        self.points = list(points)
        self.n = len(self.points)
        if len(set(self.points)) != self.n:
            raise ValueError("duplicate point labels")
        self.index = {p: i for i, p in enumerate(self.points)}
        self.group = group
        self.action = [list(row) for row in action]
        if len(self.action) != len(group):
            raise ValueError("action needs one row per group element")
        for g, row in enumerate(self.action):
            if len(row) != self.n:
                raise ValueError("action rows must cover all points")
            if sorted(row) != list(range(self.n)):
                raise ValueError(f"group element {group.label(g)!r} does not act by a bijection")
        e = group.identity
        if self.action and self.action[e] != list(range(self.n)):
            raise ValueError("identity element must act as the identity")
        for g in range(len(group)):
            for h in range(len(group)):
                gh = group.mul(g, h)
                for x in range(self.n):
                    if self.action[g][self.action[h][x]] != self.action[gh][x]:
                        raise ValueError("action is not a left group action")

        self.entourage_generators = tuple(
            (self._as_index(a), self._as_index(b)) for a, b in entourage_generators
        )
        self._comp_of = close_coarse_structure(self.entourage_generators, self.n, self.action)

        if bornology_generators is None:
            bornology_generators = [[i] for i in range(self.n)]
        self.bornology_generators = tuple(
            frozenset(self._as_index(p) for p in gen) for gen in bornology_generators
        )
        covered = set().union(*self.bornology_generators) if self.bornology_generators else set()
        if covered != set(range(self.n)):
            raise ValueError("bornology generators must cover the carrier")

        self._orbits = self._compute_orbits()
        self._components = self._compute_components()

        # u_star is G-invariant: each g sends every component into one
        # component; with g^-1 checked too, each g permutes the components
        if any(_split_component(self, self, row) for row in self.action):
            raise InvariantError("G-invariance of the coarse closure")

    def _as_index(self, p):
        if isinstance(p, int) and not isinstance(p, bool):
            if not 0 <= p < self.n:
                raise ValueError(f"point index {p} out of range")
            return p
        if p in self.index:
            return self.index[p]
        raise ValueError(f"unknown point {p!r}")

    def _compute_orbits(self):
        seen = set()
        orbits = []
        for x in range(self.n):
            if x in seen:
                continue
            orb = tuple(sorted({self.action[g][x] for g in range(len(self.group))}))
            seen |= set(orb)
            orbits.append(orb)
        return tuple(orbits)

    def _compute_components(self):
        buckets = {}
        for x in range(self.n):
            buckets.setdefault(self._comp_of[x], []).append(x)
        return tuple(tuple(sorted(v)) for _, v in sorted(buckets.items(), key=lambda kv: min(kv[1])))

    # -- queries ---------------------------------------------------------

    def related(self, x, y):
        """(x, y) in u_star?"""
        return self._comp_of[x] == self._comp_of[y]

    def components(self):
        return self._components

    def orbits(self):
        return self._orbits

    def stabilizer(self, x):
        return tuple(g for g in range(len(self.group)) if self.action[g][x] == x)

    def is_invariant_set(self, pts):
        s = {self._as_index(p) for p in pts}
        return all(self.action[g][x] in s for g in range(len(self.group)) for x in s)

    def act(self, g, x):
        return self.action[g][x]

    def label(self, x):
        return self.points[x]

    def __repr__(self):
        return (
            f"<GBornCoarseSpace |X|={self.n} |G|={len(self.group)} "
            f"components={len(self._components)} orbits={len(self._orbits)}>"
        )


def close_coarse_structure(generators, n, action):
    """Component labels of the closure of `generators` and their G-translates.

    Returns a list comp_of with comp_of[x] == comp_of[y] iff (x, y) lies in
    the generated maximal entourage.  Union-find over the G-saturated
    generator pairs is exactly the reflexive-symmetric-transitive closure.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    for a, b in generators:
        for row in action:
            union(row[a], row[b])
    return [find(x) for x in range(n)]


def _split_component(source, target, assignment):
    """The first source component whose image meets two target components,
    as (its least point x, its first point y mapped apart from x); None if
    the assignment sends every component into one component."""
    comp_of = target._comp_of
    for comp in source.components():
        c = comp_of[assignment[comp[0]]]
        y = next((y for y in comp if comp_of[assignment[y]] != c), None)
        if y is not None:
            return comp[0], y
    return None


def thickening(u, b):
    """U[B] = {x : exists b in B with (x, b) in U}."""
    bs = set(b)
    return {x for x, y in u if y in bs}


class SpaceMap:
    """A set map between space carriers; validity is checked by is_morphism."""

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        if len(assignment) != source.n:
            raise ValueError("assignment must cover every source point")
        self.assignment = tuple(target._as_index(v) for v in assignment)

    @classmethod
    def identity(cls, space):
        return cls(space, space, tuple(range(space.n)))

    def __call__(self, x):
        return self.assignment[x]

    def __eq__(self, other):
        return (
            isinstance(other, SpaceMap)
            and self.source is other.source
            and self.target is other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.assignment))

    def __repr__(self):
        pairs = ", ".join(f"{self.source.label(x)}->{self.target.label(self(x))}" for x in range(self.source.n))
        return f"<SpaceMap {pairs}>"


class MorphismReport:
    def __init__(self, violations):
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "<MorphismReport ok>"
        return "<MorphismReport " + "; ".join(self.violations) + ">"


def is_morphism(f):
    """Equivariant + controlled + proper, with a violation report.

    Properness (preimages of bounded sets are bounded) holds for any set map
    between finite carriers because every subset is bounded, so it is not
    checked.  Control is checked per component: every point of a component
    whose image meets two target components has a partner mapped apart, so
    `_split_component` finds the first pair a pairwise scan would report.
    """
    violations = []
    src, tgt = f.source, f.target
    if src.group is not tgt.group and (
        src.group.elements != tgt.group.elements or src.group.table != tgt.group.table
    ):
        violations.append("source and target groups differ")
    else:
        bad = next(((g, x) for g in range(len(src.group)) for x in range(src.n)
                    if f(src.act(g, x)) != tgt.act(g, f(x))), None)
        if bad is not None:
            g, x = bad
            violations.append(f"not equivariant at g={src.group.label(g)!r}, x={src.label(x)!r}")
    split = _split_component(src, tgt, f.assignment)
    if split is not None:
        x, y = split
        violations.append(f"not controlled: ({src.label(x)!r}, {src.label(y)!r}) maps across components")
    return MorphismReport(violations)


def are_close(f, g):
    """Do f and g agree up to the maximal entourage of the target?"""
    if f.source is not g.source or f.target is not g.target:
        raise ValueError("closeness needs a common source and target")
    return all(f.target.related(f(x), g(x)) for x in range(f.source.n))


def is_coarse_equivalence(f):
    """Does f: X -> Y have a controlled equivariant inverse up to closeness?
    True iff f is a morphism, no two components of X land in one component
    of Y, and every y in Y is related to some f(x) with Stab(y) <= Stab(x);
    translating x by G, one y per orbit is enough to check.

    Proof.  Given such x for one y per orbit, g(h.y) = h.x is a well-defined
    equivariant map, and f(g(h.y)) = h.f(x) is related to h.y, so f g is
    close to the identity.  If y ~ y' then f(g(y)) ~ f(g(y')), so g(y) ~
    g(y') by injectivity on components: g is controlled.  Likewise
    f(g(f(x))) ~ f(x) gives g(f(x)) ~ x: g f is close to the identity.
    Conversely an inverse g gives injectivity on components (f(x) ~ f(x')
    implies x ~ g(f(x)) ~ g(f(x')) ~ x') and the points x = g(y): equivariance
    gives Stab(y) <= Stab(g(y)), and closeness gives y ~ f(g(y)).
    """
    if not is_morphism(f).ok:
        return False
    src, tgt = f.source, f.target
    landing = {}  # f is controlled: each source component lands in one target component
    for comp in src.components():
        if landing.setdefault(tgt._comp_of[f(comp[0])], comp) is not comp:
            return False
    return all(any(set(tgt.stabilizer(y)) <= set(src.stabilizer(x))
                   for x in landing.get(tgt._comp_of[y], ()))
               for y in (orb[0] for orb in tgt.orbits()))


def _iterate_assignment(assignment):
    """f, f^2, f^3, ... until the iterate sequence enters a cycle."""
    seen = set()
    cur = tuple(assignment)
    while cur not in seen:
        seen.add(cur)
        yield cur
        cur = tuple(cur[v] for v in assignment)


def is_flasqueness_witness(x, f):
    """Check the three flasqueness conditions for a candidate shift f: X -> X.

    (i) f is a morphism close to the identity; (ii) for every bounded B the
    iterates eventually avoid G.B -- on a finite carrier the carrier itself
    is bounded, so it is enough (and necessary) to test B = X; (iii) the
    union of (f^k x f^k)(u_star) over all k stays an entourage, i.e. stays
    inside u_star.
    """
    if f.source is not x or f.target is not x:
        raise ValueError("witness must be a self-map")
    if not is_morphism(f).ok:
        return False
    if not are_close(f, SpaceMap.identity(x)):
        return False
    # condition (iii): iterates remain uniformly controlled
    if any(_split_component(x, x, it) for it in _iterate_assignment(f.assignment)):
        return False
    # condition (ii) with B = X: some iterate image must miss G.X = X entirely
    return any(not it for it in _iterate_assignment(f.assignment))


def has_flasqueness_witness(x):
    """Exhaustive search over all self-maps; only feasible for tiny carriers."""
    if x.n == 0:
        return True
    if x.n**x.n > SEARCH_BOUND:
        raise ValueError("self-map search exceeds bound")
    for assignment in product(range(x.n), repeat=x.n):
        if is_flasqueness_witness(x, SpaceMap(x, x, assignment)):
            return True
    return False


def is_flasque(x):
    """No nonempty finite space is flasque; the empty space is.

    For nonempty X the carrier itself is bounded, and no iterate of a self
    map has empty image, so the escape condition fails at B = X.  The
    exhaustive witness search (has_flasqueness_witness) cross-checks this on
    small carriers.
    """
    return x.n == 0


def is_complementary_pair(x, z, ys):
    """z together with the big family generated by ys covers X.

    ys must be an increasing chain of invariant subsets; it generates a big
    family iff thickenings stay inside the chain, which on a finite carrier
    pins the largest member to be closed under u_star-thickening (component
    closed).  The pair condition is z union max(ys) = X.
    """
    z_idx = {x._as_index(p) for p in z}
    if not x.is_invariant_set(z_idx):
        raise ValueError("z is not G-invariant")
    ys_idx = [frozenset(x._as_index(p) for p in y) for y in ys]
    if not ys_idx:
        return False
    for y in ys_idx:
        if not x.is_invariant_set(y):
            raise ValueError("a member of ys is not G-invariant")
    for a, b in zip(ys_idx, ys_idx[1:]):
        if not a <= b:
            return False
    top = ys_idx[-1]
    if any(not top.isdisjoint(comp) and not top.issuperset(comp) for comp in x.components()):
        return False
    return z_idx | top == set(range(x.n))


# -- constructors --------------------------------------------------------


def point_space(group=None):
    """One point with the trivial action of `group` (default: trivial group)."""
    if group is None:
        group = trivial_group()
    return GBornCoarseSpace(
        points=["pt"],
        entourage_generators=[],
        group=group,
        action=[[0]] * len(group),
    )


def empty_space(group=None):
    if group is None:
        group = trivial_group()
    return GBornCoarseSpace(points=[], entourage_generators=[], group=group, action=[[] for _ in range(len(group))], bornology_generators=[])


def g_can_min(group):
    """The group as a space over itself: left action, one coarse component.

    The canonical structure is generated by the orbits of bounded squares;
    with the whole finite carrier bounded that closes up to G x G.
    """
    n = len(group)
    points = [group.label(g) for g in range(n)]
    action = [[group.mul(g, x) for x in range(n)] for g in range(n)]
    generators = [(group.identity, g) for g in range(n)]
    return GBornCoarseSpace(points, generators, group, action)


def underlying(x):
    """x with its group forgotten: the same points, coarse components and
    bornology under the trivial group (restriction along 1 -> G).  The
    non-equivariant theories of x are the theories of this space."""
    gens = {(x.act(g, a), x.act(g, b))
            for g in range(len(x.group)) for a, b in x.entourage_generators}
    return GBornCoarseSpace(x.points, sorted(gens), trivial_group(), [list(range(x.n))],
                            [sorted(gen) for gen in x.bornology_generators])


def subspace(x, z):
    """The induced structure on an invariant subset z."""
    z_idx = sorted({x._as_index(p) for p in z})
    if not x.is_invariant_set(z_idx):
        raise ValueError("subspace carrier must be G-invariant")
    old_to_new = {old: new for new, old in enumerate(z_idx)}
    points = [x.points[i] for i in z_idx]
    gens = [(old_to_new[a], old_to_new[b]) for a in z_idx for b in z_idx if x.related(a, b)]
    action = [[old_to_new[x.act(g, i)] for i in z_idx] for g in range(len(x.group))]
    borno = []
    for gen in x.bornology_generators:
        trace = [old_to_new[i] for i in sorted(gen) if i in old_to_new]
        if trace:
            borno.append(trace)
    return GBornCoarseSpace(points, gens, x.group, action, borno or None)


def restrict_entourage(x, u):
    """X_U: same carrier and bornology, coarse structure generated by u alone."""
    pairs = [(x._as_index(a), x._as_index(b)) for a, b in u]
    for a, b in pairs:
        if not x.related(a, b):
            raise ValueError(f"pair ({x.label(a)!r}, {x.label(b)!r}) is not in u_star")
    pair_set = set(pairs)
    for g in range(len(x.group)):
        for a, b in pairs:
            if (x.act(g, a), x.act(g, b)) not in pair_set:
                raise ValueError("entourage restriction must be G-invariant")
    return GBornCoarseSpace(
        points=list(x.points),
        entourage_generators=pairs,
        group=x.group,
        action=[row[:] for row in x.action],
        bornology_generators=[sorted(gen) for gen in x.bornology_generators],
    )


def tensor(x, y):
    """Product carrier, diagonal action, product-generated coarse structure."""
    if x.group is not y.group and (
        x.group.elements != y.group.elements or x.group.table != y.group.table
    ):
        raise ValueError("tensor factors must share the group")
    points = [f"({x.points[i]},{y.points[j]})" for i in range(x.n) for j in range(y.n)]

    def pid(i, j):
        return i * y.n + j

    gens = []
    for i in range(x.n):
        for i2 in range(x.n):
            if not x.related(i, i2):
                continue
            for j in range(y.n):
                for j2 in range(y.n):
                    if y.related(j, j2):
                        gens.append((points[pid(i, j)], points[pid(i2, j2)]))
    action = [
        [pid(x.act(g, i), y.act(g, j)) for i in range(x.n) for j in range(y.n)]
        for g in range(len(x.group))
    ]
    borno = []
    for bx in x.bornology_generators:
        for by in y.bornology_generators:
            borno.append([points[pid(i, j)] for i in sorted(bx) for j in sorted(by)])
    return GBornCoarseSpace(points, gens, x.group, action, borno or None)


def min_max_space(group, action, labels=None):
    """Minimal coarse structure (diagonal), maximal bornology (whole carrier)."""
    npts = len(action[0]) if action else 0
    if labels is None:
        labels = [f"x{i}" for i in range(npts)]
    borno = [list(labels)] if npts else []
    return GBornCoarseSpace(labels, [], group, action, borno or None)


def coset_space(group, subgroup):
    """The G-set G/H as a min-max space with the left translation action."""
    cosets = group.left_cosets(subgroup)
    labels = ["+".join(group.label(m) for m in c) for c in cosets]
    coset_of = {}
    for idx, c in enumerate(cosets):
        for m in c:
            coset_of[m] = idx
    action = [[coset_of[group.mul(g, c[0])] for c in cosets] for g in range(len(group))]
    return min_max_space(group, action, labels)

