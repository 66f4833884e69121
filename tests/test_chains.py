"""Controlled tuple bases, boundaries, coarse homology, pushforwards."""

import random
from itertools import product

import pytest

import coarsehom.chains as chains_module
import coarsehom.linalg as linalg_module
from coarsehom.chains import (
    ControlledChain,
    CoarseChainComplex,
    basis_chain,
    boundary,
    boundary_of_chain,
    chain_pushforward,
    controlled_tuple_basis,
    pushforward_matrix,
    xh,
)
from coarsehom.groups import (
    cyclic_group,
    named_group,
    named_subgroup,
    symmetric_group,
    trivial_group,
)
from coarsehom.homology import ordinary_profile
from coarsehom.linalg import GF, QQ, ZZ, Complex, InvariantError, Matrix
from coarsehom.spaces import (GBornCoarseSpace, SpaceMap, coset_space, g_can_min, point_space,
                              underlying)


def single_component(k):
    """k points, trivial group, everything coarsely related."""
    gens = [(0, i) for i in range(1, k)]
    return GBornCoarseSpace(list(range(k)), gens, trivial_group(), [list(range(k))])


def test_point_bases_and_homology():
    pt = point_space()
    for n in range(4):
        assert controlled_tuple_basis(pt, n) == [(0,) * (n + 1)]
    assert xh(pt, 0).betti == 1 and xh(pt, 0).torsion == ()
    for n in range(1, 3):
        assert xh(pt, n).betti == 0 and xh(pt, n).torsion == ()


def test_two_point_component_tuple_count():
    x = single_component(2)
    assert len(controlled_tuple_basis(x, 1)) == 4


def test_boundary_of_edge():
    x = single_component(2)
    d1 = boundary(x, 1, domain=ZZ)
    # columns: (0,0), (0,1), (1,0), (1,1); rows: (0,), (1,)
    assert d1.to_dense() == [[0, -1, 1, 0], [0, 1, -1, 0]]


def test_unrelated_tuple_excluded_and_rejected():
    x = GBornCoarseSpace(["a", "b"], [], trivial_group(), [[0, 1]])
    assert controlled_tuple_basis(x, 1) == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="controlled"):
        ControlledChain(x, 1, {(0, 1): 1}, ZZ)


def test_invariant_basis_of_z2_on_itself():
    x = g_can_min(cyclic_group(2))
    assert controlled_tuple_basis(x, 0) == [(0,)]
    assert len(controlled_tuple_basis(x, 1)) == 2


def test_invariant_xh_of_z2_canmin():
    x = g_can_min(cyclic_group(2))
    h0 = xh(x, 0, domain=ZZ)
    assert h0.betti == 1 and h0.torsion == ()
    h1 = xh(x, 1, domain=ZZ)
    # group homology of Z/2 shows up in the invariant complex
    assert h1.betti == 0 and h1.torsion == (2,)
    assert xh(x, 0, domain=QQ).betti == 1


def test_plain_xh_counts_components():
    two = GBornCoarseSpace(["a", "b"], [], trivial_group(), [[0, 1]])
    assert xh(two, 0).betti == 2
    assert xh(single_component(3), 0).betti == 1


def cone_homotopy(space, n):
    """H_n: C_n -> C_(n+1), prepend the least point of the single component."""
    basis_n = controlled_tuple_basis(space, n)
    basis_up = controlled_tuple_basis(space, n + 1)
    index = {t: i for i, t in enumerate(basis_up)}
    p = 0
    cols = [{index[(p,) + tup]: 1} for tup in basis_n]
    return Matrix.from_columns(cols, len(basis_up), ZZ)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_single_component_contractible_with_certificate(k):
    x = single_component(k)
    for n in range(1, 3):
        h = xh(x, n)
        assert h.betti == 0 and h.torsion == ()
        lhs = boundary(x, n + 1, ZZ) @ cone_homotopy(x, n) + cone_homotopy(x, n - 1) @ boundary(x, n, ZZ)
        dim = len(controlled_tuple_basis(x, n))
        assert lhs == Matrix.identity(dim, ZZ)


def test_complex_builder_checks_d_squared():
    cx = CoarseChainComplex(single_component(3), max_degree=3, domain=ZZ)
    assert cx.dims == [3, 9, 27, 81]
    assert cx.homology(0).betti == 1
    with pytest.raises(ValueError, match="out of range"):
        cx.homology(3)
    one = Matrix.from_dense([[1]], ZZ)
    with pytest.raises(InvariantError, match="d\\^2 = 0 of the test complex fails in degree 2") as err:
        Complex([Matrix.zeros(0, 1, ZZ), one, one], "test complex")
    assert err.value.degree == 2


@pytest.mark.parametrize("domain", [QQ, ZZ], ids=["Q", "Z"])
def test_homology_reduces_each_boundary_once(monkeypatch, domain):
    ranked, factored = [], []
    real_rank, real_factors = linalg_module.rank, linalg_module.invariant_factors

    def counted_rank(m):
        ranked.append(m)
        return real_rank(m)

    def counted_factors(m):
        factored.append(m)
        return real_factors(m)

    monkeypatch.setattr(linalg_module, "rank", counted_rank)
    monkeypatch.setattr(linalg_module, "invariant_factors", counted_factors)
    cx = CoarseChainComplex(g_can_min(cyclic_group(3)), max_degree=4, domain=domain)
    profile = [(h.betti, h.torsion) for h in (cx.homology(n) for n in range(4))]
    reduced = [id(m) for m in ranked + factored]
    assert len(reduced) == len(set(reduced)) == 5
    if domain is ZZ:
        assert profile == [(1, ()), (0, (3,)), (0, ()), (0, (3,))]
        assert [id(m) for m in ranked] == [id(cx.d[0])]
    else:
        assert profile == [(1, ()), (0, ()), (0, ()), (0, ())]
        assert factored == []


def _counted_bases(monkeypatch):
    """The degrees of every basis enumerated from now on, in call order."""
    calls = []
    real = chains_module.controlled_tuple_basis

    def counted(space, n, *args, **kwargs):
        calls.append(n)
        return real(space, n, *args, **kwargs)

    monkeypatch.setattr(chains_module, "controlled_tuple_basis", counted)
    return calls


def test_complex_enumerates_each_basis_once(monkeypatch):
    calls = _counted_bases(monkeypatch)
    x = g_can_min(cyclic_group(3))
    cx = CoarseChainComplex(x, max_degree=4, domain=ZZ)
    assert sorted(calls) == [0, 1, 2, 3, 4]
    monkeypatch.undo()
    for n in range(5):
        assert cx.d[n] == boundary(x, n, ZZ)


@pytest.mark.parametrize("n, degrees, expected", [(0, [0, 1], (1, ())), (2, [1, 2, 3], (0, ()))])
def test_xh_enumerates_each_degree_once(monkeypatch, n, degrees, expected):
    calls = _counted_bases(monkeypatch)
    h = xh(g_can_min(cyclic_group(3)), n)
    assert calls == degrees
    assert (h.betti, h.torsion) == expected


def test_chain_sum_rejects_a_domain_mismatch():
    x = point_space()
    q = ControlledChain(x, 0, {(0,): 1}, QQ)
    f7 = ControlledChain(x, 0, {(0,): 6}, GF(7))
    with pytest.raises(ValueError, match="domain"):
        q + f7
    with pytest.raises(ValueError, match="domain"):
        f7 + q
    assert (q + q).coefficients == {(0,): 2}


def test_ordinary_profile_of_z4_to_degree_six():
    # H_n(Z/4; Z) = Z, Z/4, 0, Z/4, 0, Z/4: the degree-6 boundary (1024 x 4096)
    # leaves one non-unit factor after its unit pivots
    profile = ordinary_profile(g_can_min(cyclic_group(4)), 6, ZZ)
    assert [(h.betti, h.torsion) for h in profile] == [
        (1, ()), (0, (4,)), (0, ()), (0, (4,)), (0, ()), (0, (4,)),
    ]


def test_random_spaces_have_square_zero_boundary():
    rng = random.Random(7)
    for _ in range(10):
        npts = rng.randint(1, 5)
        gens = [(rng.randrange(npts), rng.randrange(npts)) for _ in range(rng.randint(0, 3))]
        x = GBornCoarseSpace(list(range(npts)), gens, trivial_group(), [list(range(npts))])
        CoarseChainComplex(x, max_degree=3, domain=ZZ)
        CoarseChainComplex(x, max_degree=3, domain=QQ)


def test_basis_chain_matches_boundary_matrix():
    x = g_can_min(cyclic_group(3))
    basis1 = controlled_tuple_basis(x, 1)
    basis0 = controlled_tuple_basis(x, 0)
    d1 = boundary(x, 1, domain=ZZ)
    for j, rep in enumerate(basis1):
        via_chain = boundary_of_chain(basis_chain(x, rep, ZZ))
        from_matrix = ControlledChain(x, 0, {}, ZZ)
        for i, val in d1.column(j).items():
            from_matrix = from_matrix + basis_chain(x, basis0[i], ZZ).scale(val)
        assert via_chain == from_matrix


def test_pushforward_identity_and_collapse():
    x = single_component(2)
    ident = SpaceMap.identity(x)
    c = ControlledChain(x, 1, {(0, 1): 2, (1, 0): -1}, ZZ)
    assert chain_pushforward(ident, c) == c
    pt = point_space()
    f = SpaceMap(x, pt, [0, 0])
    pushed = chain_pushforward(f, c)
    assert pushed.coefficients == {(0, 0): 1}


def test_pushforward_is_a_chain_map():
    x = single_component(3)
    pt = point_space()
    f = SpaceMap(x, pt, [0, 0, 0])
    rng = random.Random(3)
    basis2 = controlled_tuple_basis(x, 2)
    coeffs = {tup: rng.randint(-3, 3) for tup in rng.sample(basis2, 5)}
    c = ControlledChain(x, 2, coeffs, ZZ)
    assert chain_pushforward(f, boundary_of_chain(c)) == boundary_of_chain(chain_pushforward(f, c))


def test_equivariant_pushforward_preserves_invariance():
    g = cyclic_group(2)
    x = g_can_min(g)
    y = point_space(g)
    f = SpaceMap(x, y, [0, 0])
    c = basis_chain(x, (0, 1), ZZ) + basis_chain(x, (0, 0), ZZ)
    assert c.is_invariant()
    pushed = chain_pushforward(f, c)
    assert pushed.is_invariant()
    assert pushed.coefficients == {(0, 0): 4}


def test_pushforward_matrix_mod_two_collapse():
    g = cyclic_group(2)
    f = SpaceMap(g_can_min(g), point_space(g), [0, 0])
    m = pushforward_matrix(f, 0, domain=GF(2))
    assert m.is_zero()  # the orbit sum has two members, and 2 = 0 in F_2
    m_q = pushforward_matrix(f, 0, domain=QQ)
    assert m_q.to_dense() == [[2]]


def test_pushforward_needs_morphism():
    src = single_component(2)
    tgt = GBornCoarseSpace(["a", "b"], [], trivial_group(), [[0, 1]])
    f = SpaceMap(src, tgt, [0, 1])
    with pytest.raises(ValueError, match="morphism"):
        chain_pushforward(f, ControlledChain(src, 0, {(0,): 1}, ZZ))


def test_degree_guard():
    with pytest.raises(ValueError, match="out of range"):
        xh(point_space(), 4)


def test_collecting_a_chain_not_constant_on_orbits_is_an_internal_error():
    x = g_can_min(cyclic_group(2))
    basis = controlled_tuple_basis(x, 0)
    assert basis == [(0,)]
    assert basis.collect({(0,): 1, (1,): 1}, QQ) == {0: 1}
    with pytest.raises(InvariantError, match="constant on orbits fails in degree 0"):
        basis.collect({(0,): 1}, QQ)


def _joined(x):
    """The same G-set with every pair of points related."""
    return GBornCoarseSpace(x.points, [(0, y) for y in range(1, x.n)], x.group, x.action)


def _brute_force_basis(space, n):
    """sorted({min over all g of g.t}) over the plain controlled tuples."""
    reps = set()
    for tup in product(range(space.n), repeat=n + 1):
        if all(space.related(tup[0], x) for x in tup):
            reps.add(min(tuple(space.act(g, x) for x in tup) for g in range(len(space.group))))
    return sorted(reps)


@pytest.mark.parametrize("make", [
    lambda: g_can_min(symmetric_group(3)),
    lambda: coset_space(named_group("s3"), named_subgroup(named_group("s3"), "z3")),
    lambda: coset_space(named_group("s3"), named_subgroup(named_group("s3"), "z2")),
    lambda: GBornCoarseSpace(["p", "q", "r"], [], cyclic_group(2), [[0, 1, 2], [1, 0, 2]]),
    # one component, so a stabilizer moves the later coordinates
    lambda: GBornCoarseSpace(["p", "q", "r"], [(0, 2)], cyclic_group(2), [[0, 1, 2], [1, 0, 2]]),
    lambda: _joined(coset_space(named_group("s3"), named_subgroup(named_group("s3"), "z2"))),
], ids=["s3", "s3/z3", "s3/z2", "swap", "swap-joined", "s3/z2-joined"])
@pytest.mark.parametrize("equivariant", [True, False])
def test_orbit_basis_matches_brute_force(make, equivariant):
    space = make() if equivariant else underlying(make())
    for n in range(4):
        basis = controlled_tuple_basis(space, n)
        assert basis == _brute_force_basis(space, n)
        assert all(basis.index[t] == i for i, t in enumerate(basis))
        for t in product(range(space.n), repeat=n + 1):
            if all(space.related(t[0], x) for x in t):
                assert basis.rep(t) in basis.index and t in basis.orbit(basis.rep(t))


def test_cap_bounds_the_representatives():
    # degree 3 of s3 has 6^4 = 1296 plain tuples but 216 orbit representatives
    s3 = g_can_min(symmetric_group(3))
    assert len(controlled_tuple_basis(underlying(s3), 3)) == 1296
    cx = CoarseChainComplex(s3, max_degree=3, domain=ZZ, cap=300)
    assert len(cx.bases[3]) == 216
    assert [(h.betti, h.torsion) for h in (cx.homology(n) for n in range(3))] == [
        (1, ()), (0, (2,)), (0, ()),
    ]
    built = []
    real = Matrix.from_columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "from_columns", lambda *a, **k: built.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="more than 200"):
            CoarseChainComplex(s3, max_degree=3, domain=ZZ, cap=200)
    assert built == []
