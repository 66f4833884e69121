"""The structural predicates of `spaces` and the nerve budget of `axioms`
against brute-force references: a search for a controlled equivariant
inverse, a pairwise control scan, the thickening of the largest member, and
solved hom spaces.  The references live only here."""

import random
from itertools import combinations, product
from math import prod

import pytest

from coarsehom.axioms import (BUDGET_END_CAP, BUDGET_NERVE_CAP, _GROUPS, _free_space,
                              _orbit_hom_dims, all_partition_spaces, nerve_fits_budget,
                              random_equivalence, random_space)
from coarsehom.controlled import HomSpace, orbit_objects
from coarsehom.groups import cyclic_group, named_group, named_subgroup, trivial_group
from coarsehom.linalg import QQ
from coarsehom.spaces import (SpaceMap, close_coarse_structure, coset_space, g_can_min,
                              is_coarse_equivalence, is_complementary_pair, is_morphism,
                              point_space, thickening)

# -- references -----------------------------------------------------------------


def morphism_violations(f):
    """The violation strings of a pairwise scan over all pairs of points."""
    violations = []
    src, tgt = f.source, f.target
    if src.group.elements != tgt.group.elements or src.group.table != tgt.group.table:
        return ["source and target groups differ"] + _control_violations(f)
    for g in range(len(src.group)):
        bad = [x for x in range(src.n) if f(src.act(g, x)) != tgt.act(g, f(x))]
        if bad:
            violations.append(f"not equivariant at g={src.group.label(g)!r}, x={src.label(bad[0])!r}")
            break
    return violations + _control_violations(f)


def _control_violations(f):
    src, tgt = f.source, f.target
    for x in range(src.n):
        for y in range(src.n):
            if src.related(x, y) and not tgt.related(f(x), f(y)):
                return [f"not controlled: ({src.label(x)!r}, {src.label(y)!r}) maps across components"]
    return []


def _image_choices(source, target):
    """For each source orbit representative, the points it may go to."""
    return [[y for y in range(target.n) if set(source.stabilizer(r)) <= set(target.stabilizer(y))]
            for r in (orb[0] for orb in source.orbits())]


def equivariant_maps(source, target):
    """Every equivariant set map, chosen orbitwise: each source orbit
    representative goes to a point whose stabilizer contains its own."""
    reps = [orb[0] for orb in source.orbits()]
    for picks in product(*_image_choices(source, target)):
        assignment = [None] * source.n
        for r, y in zip(reps, picks):
            for g in range(len(source.group)):
                assignment[source.act(g, r)] = target.act(g, y)
        yield SpaceMap(source, target, assignment)


def has_controlled_inverse(f):
    """Search every equivariant g: Y -> X for a controlled one with g f and
    f g close to the identities."""
    if morphism_violations(f):
        return False
    src, tgt = f.source, f.target
    for g in equivariant_maps(tgt, src):
        if (not morphism_violations(g)
                and all(src.related(g(f(x)), x) for x in range(src.n))
                and all(tgt.related(f(g(y)), y) for y in range(tgt.n))):
            return True
    return False


def complementary_by_thickening(x, z, ys):
    """The pair condition with the largest member's u_star-thickening taken."""
    if not ys or any(not a <= b for a, b in zip(ys, ys[1:])):
        return False
    top = ys[-1]
    comp_of = close_coarse_structure(x.entourage_generators, x.n, x.action)
    closure = {(a, b) for a in range(x.n) for b in range(x.n) if comp_of[a] == comp_of[b]}
    if not thickening(closure, top) <= top:
        return False
    return set(z) | top == set(range(x.n))


def solved_hom_dims(space):
    objs = orbit_objects(space, QQ)
    return [[HomSpace(a, b).dim for b in objs] for a in objs]


def budget_by_solving(space):
    h = solved_hom_dims(space)
    r = len(h)
    power = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(5):
        power = [[sum(power[i][k] * h[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    return (sum(map(sum, h)) ** 5 <= BUDGET_END_CAP
            and sum(power[i][i] for i in range(r)) <= BUDGET_NERVE_CAP)


# -- inputs ---------------------------------------------------------------------


def s3_spaces():
    s3 = named_group("s3")
    cosets = [coset_space(s3, named_subgroup(s3, h)) for h in ("1", "z2", "z3", "s3")]
    return cosets + [g_can_min(s3), point_space(s3)]


def set_maps(source, target):
    for assignment in product(range(target.n), repeat=source.n):
        yield SpaceMap(source, target, assignment)


def maps_among(spaces, largest_source=None):
    for x, y in product(spaces, repeat=2):
        if largest_source is None or x.n <= largest_source:
            yield from set_maps(x, y)


def random_draws(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_space(rng))
        f = random_equivalence(rng)
        out += [f.source, f.target]
    return out


def invariant_subsets(x):
    orbits = x.orbits()
    return [frozenset(p for orb in pick for p in orb)
            for k in range(len(orbits) + 1) for pick in combinations(orbits, k)]


# -- coarse equivalence -----------------------------------------------------------


def assert_equivalences_agree(maps):
    found = 0
    for f in maps:
        expected = has_controlled_inverse(f)
        assert is_coarse_equivalence(f) == expected, f
        found += expected
    return found


def test_equivalence_matches_the_inverse_search_on_partition_spaces():
    assert assert_equivalences_agree(maps_among(all_partition_spaces(3))) > 0


def test_equivalence_matches_the_inverse_search_on_s3_spaces():
    # every set map out of the small s3 spaces, every equivariant one out of the rest
    spaces = s3_spaces()
    small = list(maps_among(spaces, largest_source=3))
    large = [f for x, y in product(spaces, repeat=2) if x.n > 3 for f in equivariant_maps(x, y)]
    assert assert_equivalences_agree(small + large) > 0


@pytest.mark.slow
def test_equivalence_matches_the_inverse_search_on_every_s3_set_map():
    assert assert_equivalences_agree(maps_among(s3_spaces())) > 0


@pytest.mark.slow
def test_equivalence_matches_the_inverse_search_on_random_draws():
    # pairs whose maps there and back number at most 10^5, so the search ends
    draws = random_draws(5, 6)
    pairs = [(x, y) for x, y in product(draws, repeat=2) if x.group.table == y.group.table
             and prod(map(len, _image_choices(x, y))) * prod(map(len, _image_choices(y, x))) <= 10**5]
    maps = [f for x, y in pairs for f in equivariant_maps(x, y)]
    assert assert_equivalences_agree(maps) > 0


# -- morphisms and complementary pairs ----------------------------------------------


def test_morphism_violations_match_the_pairwise_scan():
    s3 = s3_spaces()
    maps = list(maps_among(all_partition_spaces(3))) + list(maps_among(s3, 3))
    # one component onto discrete cosets: uncontrolled, and mostly not equivariant
    maps += [f for y in s3[1:3] for f in set_maps(s3[4], y)]
    # z2 against the trivial group: the groups differ
    z2 = cyclic_group(2)
    maps += list(maps_among([point_space(z2), g_can_min(z2), all_partition_spaces(2)[-1]]))
    for f in maps:
        assert list(is_morphism(f).violations) == morphism_violations(f), f
    assert any(is_morphism(f).ok for f in maps)
    assert any(len(is_morphism(f).violations) == 2 for f in maps)
    assert any("groups differ" in " ".join(is_morphism(f).violations) for f in maps)


def test_complementary_pairs_match_the_thickening():
    for x in all_partition_spaces(3) + s3_spaces() + random_draws(1, 4):
        subsets = invariant_subsets(x)
        for z in subsets:
            pairs = [[a, b] for a in subsets for b in subsets if a <= b or len(subsets) <= 8]
            for ys in [[]] + [[a] for a in subsets] + pairs:
                got = is_complementary_pair(x, sorted(z), [sorted(y) for y in ys])
                assert got == complementary_by_thickening(x, z, ys), (x, z, ys)


# -- nerve budget -------------------------------------------------------------------


def test_hom_dims_match_the_solved_hom_spaces():
    rng = random.Random(2)
    spaces = s3_spaces() + [_free_space(trivial_group(), 6, [(i, i + 1) for i in range(5)])]
    for _ in range(30):
        group = rng.choice(_GROUPS)
        n_orbits = rng.randint(1, 6 // len(group))
        n = n_orbits * len(group)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        spaces.append(_free_space(group, n_orbits, pairs))
    for space in spaces:
        assert _orbit_hom_dims(space) == solved_hom_dims(space)
        assert nerve_fits_budget(space) == budget_by_solving(space)
    assert any(nerve_fits_budget(sp) for sp in spaces)
    assert not all(nerve_fits_budget(sp) for sp in spaces)
