import pytest

import coarsehom.spaces as spaces_module
from coarsehom.groups import FiniteGroup, cyclic_group, symmetric_group, trivial_group
from coarsehom.linalg import InvariantError
from coarsehom.spaces import (
    GBornCoarseSpace,
    SpaceMap,
    are_close,
    close_coarse_structure,
    coset_space,
    empty_space,
    g_can_min,
    has_flasqueness_witness,
    is_coarse_equivalence,
    is_complementary_pair,
    is_flasque,
    is_morphism,
    min_max_space,
    point_space,
    restrict_entourage,
    underlying,
    subspace,
    tensor,
    thickening,
)


def trivial_g_space(labels, gen_pairs, bornology=None):
    g = trivial_group()
    return GBornCoarseSpace(labels, gen_pairs, g, [list(range(len(labels)))], bornology)


def test_closure_examples():
    ident = [list(range(3))]
    assert close_coarse_structure([], 3, ident) == [0, 1, 2]
    assert close_coarse_structure([(0, 1)], 3, ident) == [0, 0, 2]
    assert close_coarse_structure([(0, 1), (1, 2)], 3, ident) == [0, 0, 0]
    # G-translates are folded in: swapping action merges the swapped pair's orbit
    z2 = [[0, 1, 2, 3], [1, 0, 3, 2]]
    assert close_coarse_structure([(0, 2)], 4, z2) == [0, 1, 0, 1]


def closure_pairs(generators, n, action):
    """The closed maximal entourage as a frozenset of ordered pairs."""
    comp_of = close_coarse_structure(generators, n, action)
    return frozenset((x, y) for x in range(n) for y in range(n) if comp_of[x] == comp_of[y])


def test_closure_idempotent_monotone():
    ident = [list(range(4))]
    gens = [(0, 1), (2, 3)]
    once = closure_pairs(gens, 4, ident)
    again = closure_pairs(list(once), 4, ident)
    assert once == again
    bigger = closure_pairs(gens + [(1, 2)], 4, ident)
    assert once <= bigger


def test_thickening():
    diag = {(0, 0), (1, 1), (2, 2)}
    assert thickening(diag, {1}) == {1}
    full = {(i, j) for i in range(3) for j in range(3)}
    assert thickening(full, {0}) == {0, 1, 2}
    assert thickening({(0, 1)}, {1}) == {0}
    assert thickening(full, set()) == set()


def test_g_can_min():
    assert g_can_min(trivial_group()).n == 1
    z2 = g_can_min(cyclic_group(2))
    assert z2.n == 2
    assert z2.related(0, 1)
    s3 = g_can_min(symmetric_group(3))
    assert s3.n == 6
    assert len(s3.components()) == 1
    assert len(s3.orbits()) == 1


def test_space_validation():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        GBornCoarseSpace(["a", "b"], [], g, [[0, 1], [0, 0]])  # not a bijection
    with pytest.raises(ValueError):
        GBornCoarseSpace(["a", "b"], [], g, [[1, 0], [0, 1]])  # identity row wrong
    with pytest.raises(ValueError):
        GBornCoarseSpace(["a", "a"], [], trivial_group(), [[0, 1]])
    with pytest.raises(ValueError):
        trivial_g_space(["a", "b"], [], bornology=[["a"]])  # fails to cover


def test_subspace():
    x = trivial_g_space(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    z = subspace(x, ["a", "b"])
    assert z.points == ["a", "b"]
    assert z.related(0, 1)
    assert subspace(x, []).n == 0
    whole = subspace(x, x.points)
    assert whole.components() == x.components()
    swap = GBornCoarseSpace(["p", "q"], [], cyclic_group(2), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        subspace(swap, ["p"])  # not invariant


def test_restrict_entourage():
    x = trivial_g_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert len(x.components()) == 1
    discrete = restrict_entourage(x, [])
    assert len(discrete.components()) == 3
    partial = restrict_entourage(x, [("a", "b"), ("b", "a")])
    assert partial.related(0, 1) and not partial.related(1, 2)
    same = restrict_entourage(x, [(p, q) for p in x.points for q in x.points])
    assert same.components() == x.components()
    with pytest.raises(ValueError):
        restrict_entourage(discrete, [("a", "b")])  # outside u_star
    z2 = GBornCoarseSpace(["p", "q"], [("p", "q")], cyclic_group(2), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        # the swap sends (p, q) to (q, p), so the singleton pair set is not invariant
        restrict_entourage(z2, [("p", "q")])


def components_by_label(x):
    return [[x.points[i] for i in comp] for comp in x.components()]


def test_restrict_entourage_of_an_integer_labelled_space():
    # the labels are a permutation of the positions, so reading one as the
    # other puts the wrong points together
    x = GBornCoarseSpace([2, 0, 1], [(0, 1)], trivial_group(), [[0, 1, 2]])
    xu = restrict_entourage(x, [(0, 1)])
    assert components_by_label(xu) == [[2, 0], [1]]
    assert xu.bornology_generators == x.bornology_generators


def test_subspace_of_an_integer_labelled_space():
    x = GBornCoarseSpace([0, 1, 2], [(0, 1), (0, 2)], trivial_group(), [[0, 1, 2]])
    z = subspace(x, [1, 2])
    assert z.points == [1, 2]
    assert components_by_label(z) == [[1, 2]]


def test_default_bornology_of_an_integer_labelled_space():
    x = GBornCoarseSpace([1, 2, 3], [(0, 1)], trivial_group(), [[0, 1, 2]])
    assert x.bornology_generators == tuple(frozenset([i]) for i in range(3))


def test_g_can_min_of_an_integer_labelled_group():
    x = g_can_min(FiniteGroup([5, 6], [[0, 1], [1, 0]]))
    assert x.points == [5, 6]
    assert components_by_label(x) == [[5, 6]]


def test_tensor():
    a = trivial_g_space(["a1", "a2"], [])  # 2 components
    b = trivial_g_space(["b1", "b2", "b3"], [("b1", "b2")])  # 2 components
    prod = tensor(a, b)
    assert prod.n == 6
    assert len(prod.components()) == 4
    pt = point_space()
    right = tensor(pt, b)
    assert right.n == b.n
    assert len(right.components()) == len(b.components())
    with pytest.raises(ValueError):
        tensor(a, g_can_min(cyclic_group(2)))


def test_min_max_and_cosets():
    s3 = symmetric_group(3)
    h = (0, 3, 4)  # identity and the two 3-cycles
    assert s3.is_subgroup(h)
    gh = coset_space(s3, h)
    assert gh.n == 2
    assert len(gh.components()) == 2  # minimal coarse structure: discrete
    assert len(gh.orbits()) == 1  # transitive translation action
    free = min_max_space(trivial_group(), [[0, 1, 2]])
    assert free.n == 3 and len(free.components()) == 3


def test_is_morphism():
    x = trivial_g_space(["a", "b"], [("a", "b")])
    y = trivial_g_space(["u", "v"], [])
    ident = SpaceMap.identity(x)
    assert is_morphism(ident).ok
    const = SpaceMap(x, y, [0, 0])
    assert is_morphism(const).ok
    mixing = SpaceMap(x, y, [0, 1])  # collapses a component across a discrete target
    rep = is_morphism(mixing)
    assert not rep.ok
    assert any("not controlled" in v for v in rep.violations)
    swap = GBornCoarseSpace(["p", "q"], [("p", "q")], cyclic_group(2), [[0, 1], [1, 0]])
    twist = SpaceMap(swap, swap, [1, 0])
    assert is_morphism(twist).ok  # swapping is equivariant here
    z2_triv = GBornCoarseSpace(["p", "q"], [("p", "q")], cyclic_group(2), [[0, 1], [0, 1]])
    collapse = SpaceMap(swap, z2_triv, [0, 0])
    assert is_morphism(collapse).ok  # constant on the swapped orbit
    split = SpaceMap(swap, z2_triv, [0, 1])
    assert not is_morphism(split).ok  # f(g.p) = f(q) = q but g.f(p) = p
    bad_back = SpaceMap(z2_triv, swap, [0, 1])
    assert not is_morphism(bad_back).ok


def test_are_close():
    x = trivial_g_space(["a", "b", "c"], [("a", "b")])
    f = SpaceMap(x, x, [0, 0, 2])
    g = SpaceMap(x, x, [1, 1, 2])
    h = SpaceMap(x, x, [2, 2, 2])
    assert are_close(f, f)
    assert are_close(f, g)
    assert not are_close(f, h)
    assert are_close(g, f)  # symmetric
    with pytest.raises(ValueError):
        are_close(f, SpaceMap.identity(trivial_g_space(["z"], [])))


def test_is_coarse_equivalence():
    x = trivial_g_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
    pt = point_space()
    incl = SpaceMap(pt, x, [0])
    assert is_coarse_equivalence(incl)
    assert is_coarse_equivalence(SpaceMap.identity(x))
    two = trivial_g_space(["a", "b"], [])
    one = subspace(two, ["a"])
    incl2 = SpaceMap(one, two, [0])
    assert not is_coarse_equivalence(incl2)


def test_flasqueness():
    assert is_flasque(empty_space())
    assert not is_flasque(point_space())
    x = trivial_g_space(["a", "b", "c"], [("a", "b")])
    assert not is_flasque(x)
    # exhaustive cross-check over all 27 self-maps
    assert not has_flasqueness_witness(x)
    assert not has_flasqueness_witness(point_space())
    assert has_flasqueness_witness(empty_space())


def test_equivalence_of_a_long_chain_needs_no_search():
    # an inverse search would face 12^12 candidate maps
    labels = [f"c{i}" for i in range(12)]
    x = trivial_g_space(labels, list(zip(labels, labels[1:])))
    assert len(x.components()) == 1
    assert is_coarse_equivalence(SpaceMap.identity(x))
    assert is_coarse_equivalence(SpaceMap(x, x, [0] * 12))


def test_a_closure_that_is_not_invariant_is_an_internal_error(monkeypatch):
    # 0 ~ 2, but the swap sends them to 1 and 3, which are apart
    monkeypatch.setattr(spaces_module, "close_coarse_structure", lambda gens, n, action: [0, 1, 0, 3])
    with pytest.raises(InvariantError, match="G-invariance of the coarse closure"):
        GBornCoarseSpace(["a", "b", "c", "d"], [], cyclic_group(2), [[0, 1, 2, 3], [1, 0, 3, 2]])


def test_witness_search_stops_at_the_bound(monkeypatch):
    # a 3-point space has 3^3 self-maps
    x = trivial_g_space(["a", "b", "c"], [("a", "b")])
    monkeypatch.setattr(spaces_module, "SEARCH_BOUND", 27)
    assert not has_flasqueness_witness(x)
    monkeypatch.setattr(spaces_module, "SEARCH_BOUND", 26)
    with pytest.raises(ValueError, match="self-map search exceeds bound"):
        has_flasqueness_witness(x)


def test_is_complementary_pair():
    x = trivial_g_space(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    comp1, comp2 = [x.points[i] for i in x.components()[0]], [x.points[i] for i in x.components()[1]]
    assert is_complementary_pair(x, x.points, [[]])
    assert is_complementary_pair(x, comp1, [comp2])
    assert is_complementary_pair(x, comp1, [[], comp2])
    # largest member not component-closed: thickening escapes
    assert not is_complementary_pair(x, comp1, [["c"]])
    # not increasing
    assert not is_complementary_pair(x, comp1, [comp2, []])
    # no cover
    assert not is_complementary_pair(x, comp1, [[]])
    swap = GBornCoarseSpace(["p", "q"], [("p", "q")], cyclic_group(2), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        is_complementary_pair(swap, ["p"], [["q"]])


def test_orbit_structure():
    z2 = cyclic_group(2)
    swap = GBornCoarseSpace(["p", "q", "r"], [], z2, [[0, 1, 2], [1, 0, 2]])
    assert swap.orbits() == ((0, 1), (2,))
    assert swap.stabilizer(2) == (0, 1)
    assert swap.stabilizer(0) == (0,)
    assert g_can_min(symmetric_group(3)).orbits() == ((0, 1, 2, 3, 4, 5),)
    assert swap.is_invariant_set({0, 1})
    assert not swap.is_invariant_set({0, 2})


@pytest.mark.parametrize("make", [
    # a0 ~ b0 only through its generator; a1 ~ b1 and a2 ~ b2 only through translates
    lambda: GBornCoarseSpace(["a0", "a1", "a2", "b0", "b1", "b2"], [("a0", "b0")], cyclic_group(3),
                             [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]]),
    lambda: g_can_min(symmetric_group(3)),
    lambda: min_max_space(cyclic_group(2), [[0, 1, 2], [1, 0, 2]]),
    lambda: point_space(cyclic_group(2)),
    empty_space,
], ids=["translates", "s3", "min-max", "point", "empty"])
def test_underlying_forgets_only_the_group(make):
    x = make()
    u = underlying(x)
    assert u.points == x.points
    assert u.components() == x.components()
    assert u.bornology_generators == x.bornology_generators
    assert len(u.group) == 1 and u.action == [list(range(x.n))]
    assert u.orbits() == tuple((p,) for p in range(x.n))
