"""Controlled tuple bases, boundaries, coarse homology, pushforwards."""

import random
from itertools import product

import pytest

import coarsehom.chains as chains_module
import coarsehom.linalg as linalg_module
from coarsehom.axioms import random_space
from coarsehom.chains import (
    ControlledChain,
    CoarseChainComplex,
    MooreBasis,
    OrbitBasis,
    TupleChainComplex,
    _boundary_of_tuple,
    basis_chain,
    boundary_of_chain,
    chain_pushforward,
    controlled_tuple_basis,
    pushforward_matrix,
)
from coarsehom.groups import (
    cyclic_group,
    named_group,
    named_subgroup,
    symmetric_group,
    trivial_group,
)
from coarsehom.homology import ordinary_profile
from coarsehom.linalg import GF, QQ, ZZ, Complex, InvariantError, Matrix, finished
from coarsehom.spaces import (GBornCoarseSpace, SpaceMap, coset_space, g_can_min, point_space,
                              underlying)
from coarsehom.trace import _xc_s_norm


def single_component(k):
    """k points, trivial group, everything coarsely related."""
    gens = [(0, i) for i in range(1, k)]
    return GBornCoarseSpace(list(range(k)), gens, trivial_group(), [list(range(k))])


def both_complexes(space, max_degree, domain=ZZ):
    return [kind(space, max_degree, domain) for kind in (CoarseChainComplex, TupleChainComplex)]


def profile(cx):
    return [(h.betti, h.torsion) for h in map(cx.homology, range(cx.max_degree))]


def test_point_bases_and_homology():
    pt = point_space()
    for n in range(4):
        assert controlled_tuple_basis(pt, n) == [(0,) * (n + 1)]
        assert controlled_tuple_basis(pt, n, kind=MooreBasis) == ([(0,)] if n == 0 else [])
    for cx in both_complexes(pt, 3):
        assert profile(cx) == [(1, ()), (0, ()), (0, ())]


def test_two_point_component_tuple_count():
    x = single_component(2)
    assert len(controlled_tuple_basis(x, 1)) == 4
    assert controlled_tuple_basis(x, 1, kind=MooreBasis) == [(0, 1), (1, 0)]


def test_boundary_of_edge():
    moore, full = both_complexes(single_component(2), 1)
    # columns: (0,0), (0,1), (1,0), (1,1); rows: (0,), (1,)
    assert full.d[1].to_dense() == [[0, -1, 1, 0], [0, 1, -1, 0]]
    # the degenerate columns (0,0) and (1,1) are gone
    assert moore.d[1].to_dense() == [[-1, 1], [1, -1]]


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
    for cx in both_complexes(x, 2):
        h0, h1 = cx.homology(0), cx.homology(1)
        assert h0.betti == 1 and h0.torsion == ()
        # group homology of Z/2 shows up in the invariant complex
        assert h1.betti == 0 and h1.torsion == (2,)
    for cx in both_complexes(x, 1, QQ):
        assert cx.homology(0).betti == 1


def test_plain_xh_counts_components():
    two = GBornCoarseSpace(["a", "b"], [], trivial_group(), [[0, 1]])
    for cx in both_complexes(two, 1):
        assert cx.homology(0).betti == 2
    for cx in both_complexes(single_component(3), 1):
        assert cx.homology(0).betti == 1


def cone_homotopy(cx, n):
    """H_n: C_n -> C_(n+1), prepend the least point of the single component.

    H sends degenerate tuples to degenerate tuples, so it descends to the
    Moore complex, where (0, 0, ...) is zero."""
    basis_n, basis_up = cx.bases[n], cx.bases[n + 1]
    p = 0
    moore = cx.basis_kind is MooreBasis
    cols = [{} if moore and tup[0] == p else {basis_up.index[(p,) + tup]: 1} for tup in basis_n]
    return Matrix.from_columns(cols, len(basis_up), ZZ)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_single_component_contractible_with_certificate(k):
    for cx in both_complexes(single_component(k), 3):
        for n in range(1, 3):
            h = cx.homology(n)
            assert h.betti == 0 and h.torsion == ()
            lhs = cx.d[n + 1] @ cone_homotopy(cx, n) + cone_homotopy(cx, n - 1) @ cx.d[n]
            assert lhs == Matrix.identity(cx.dims[n], ZZ)


def test_complex_builder_checks_d_squared():
    moore, cx = both_complexes(single_component(3), 3)
    assert cx.dims == [3, 9, 27, 81]
    assert moore.dims == [3, 6, 12, 24]
    assert cx.homology(0).betti == moore.homology(0).betti == 1
    with pytest.raises(ValueError, match="out of range"):
        cx.homology(3)
    one = Matrix.from_dense([[1]], ZZ)
    with pytest.raises(InvariantError, match="d\\^2 = 0 of the test complex fails in degree 2") as err:
        Complex([Matrix(0, 1, ZZ), one, one], "test complex")
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
    # the five boundaries, each once, in degree order and compressed by the
    # one below: over Z d[0] goes to rank and d[1..4] to invariant_factors
    reduced = ranked + factored
    assert [(m.nrows, m.ncols) for m in reduced] == [(d.nrows, d.ncols) for d in cx.d]
    assert sum(m.nnz for m in reduced) < sum(d.nnz for d in cx.d)
    if domain is ZZ:
        assert profile == [(1, ()), (0, (3,)), (0, ()), (0, (3,))]
        assert len(ranked) == 1
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
    built = both_complexes(x, 4)
    assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    monkeypatch.undo()
    for cx in built:
        fresh = type(cx)(x, max_degree=4, domain=ZZ)
        assert [b.degree for b in cx.bases] == [0, 1, 2, 3, 4]
        assert all(type(b) is cx.basis_kind for b in cx.bases)
        assert cx.d == fresh.d


def test_pushforward_reads_the_complexes_bases(monkeypatch):
    g = cyclic_group(2)
    f = SpaceMap(g_can_min(g), point_space(g), [0, 0])
    src, tgt = (CoarseChainComplex(sp, 2, QQ) for sp in (f.source, f.target))
    calls = _counted_bases(monkeypatch)
    push = [pushforward_matrix(src, tgt, f, n) for n in range(3)]
    assert calls == []
    # (0,) goes to twice the point; every tuple of degree >= 1 lands on a
    # degenerate one, which is zero in the Moore complex
    assert push[0].to_dense() == [[2]]
    assert push[1].nrows == push[2].nrows == 0 and push[1].ncols == 1


def test_chain_sum_rejects_a_domain_mismatch():
    x = point_space()
    q = ControlledChain(x, 0, {(0,): 1}, QQ)
    f7 = ControlledChain(x, 0, {(0,): 6}, GF(7))
    with pytest.raises(ValueError, match="domain"):
        q + f7
    with pytest.raises(ValueError, match="domain"):
        f7 + q
    assert (q + q).coefficients == {(0,): 2}


def test_chains_over_different_domains_are_not_equal():
    x = point_space()
    q = ControlledChain(x, 0, {(0,): 1}, QQ)
    assert q == ControlledChain(x, 0, {(0,): 1}, QQ)
    assert q != ControlledChain(x, 0, {(0,): 1}, GF(5))


def test_ordinary_profile_of_z4_to_degree_seven():
    # the Moore complex has 3^7 = 2187 top representatives (4^7 = 16384 tuples)
    cx = CoarseChainComplex(g_can_min(cyclic_group(4)), 7, ZZ)
    assert cx.dims[7] == 2187
    assert profile(cx) == [
        (1, ()), (0, (4,)), (0, ()), (0, (4,)), (0, ()), (0, (4,)), (0, ()),
    ]


@pytest.mark.slow
def test_ordinary_profile_of_s3_to_degree_six():
    # H_n(S_3; Z) = Z, Z/2, 0, Z/6, 0, Z/2: 15,625 top representatives
    profile = ordinary_profile(g_can_min(symmetric_group(3)), 6, ZZ)
    assert [(h.betti, h.torsion) for h in profile] == [
        (1, ()), (0, (2,)), (0, ()), (0, (6,)), (0, ()), (0, (2,)),
    ]


@pytest.mark.slow
def test_ordinary_profile_of_s3_to_degree_seven():
    # 78,125 top representatives: affordable because each boundary is
    # compressed by the pivot columns of the one below it
    profile = ordinary_profile(g_can_min(symmetric_group(3)), 7, ZZ)
    assert [(h.betti, h.torsion) for h in profile] == [
        (1, ()), (0, (2,)), (0, ()), (0, (6,)), (0, ()), (0, (2,)), (0, ()),
    ]


def test_ordinary_profile_of_z4_to_degree_six():
    # H_n(Z/4; Z) = Z, Z/4, 0, Z/4, 0, Z/4: the degree-6 boundary (243 x 729)
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
        for domain in (ZZ, QQ):
            both_complexes(x, 3, domain)


def _nondegenerate_part(c):
    kept = {t: v for t, v in c.coefficients.items() if all(a != b for a, b in zip(t, t[1:]))}
    return ControlledChain(c.space, c.degree, kept, c.domain, check=False)


def test_basis_chain_matches_boundary_matrix():
    # the plain-tuple route is an independent oracle for both boundaries;
    # on the Moore complex the degenerate faces of a chain are zero
    x = g_can_min(cyclic_group(3))
    for cx in both_complexes(x, 2):
        moore = cx.basis_kind is MooreBasis
        for n in (1, 2):
            for j, rep in enumerate(cx.bases[n]):
                via_chain = boundary_of_chain(basis_chain(x, rep, ZZ))
                if moore:
                    via_chain = _nondegenerate_part(via_chain)
                from_matrix = ControlledChain(x, n - 1, {}, ZZ)
                for i, val in cx.d[n].column(j).items():
                    from_matrix = from_matrix + basis_chain(x, cx.bases[n - 1][i], ZZ).scale(val)
                assert via_chain == from_matrix


def test_basis_chain_lists_one_orbit_and_no_basis():
    # degree 9 of z4 has far more than TUPLE_CAP orbit representatives;
    # the chain of one of them is its 4-member orbit
    z4 = g_can_min(cyclic_group(4))
    tup = (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)
    chain = basis_chain(z4, tup, ZZ)
    assert chain.degree == 9
    assert chain.coefficients == {tuple(z4.act(g, x) for x in tup): 1 for g in range(4)}
    assert len(chain.coefficients) == 4


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
    for kind in (CoarseChainComplex, TupleChainComplex):
        src, tgt = (kind(sp, 0, GF(2)) for sp in (f.source, f.target))
        m = pushforward_matrix(src, tgt, f, 0)
        assert m.is_zero()  # the orbit sum has two members, and 2 = 0 in F_2
        src, tgt = (kind(sp, 0, QQ) for sp in (f.source, f.target))
        m_q = pushforward_matrix(src, tgt, f, 0)
        assert m_q.to_dense() == [[2]]


def test_pushforward_needs_matching_complexes():
    g = cyclic_group(2)
    f = SpaceMap(g_can_min(g), point_space(g), [0, 0])
    src, tgt = CoarseChainComplex(f.source, 1, QQ), CoarseChainComplex(f.target, 1, QQ)
    with pytest.raises(ValueError, match="endpoints"):
        pushforward_matrix(tgt, src, f, 0)
    with pytest.raises(ValueError, match="one kind"):
        pushforward_matrix(src, TupleChainComplex(f.target, 1, QQ), f, 0)
    with pytest.raises(ValueError, match="one kind"):
        pushforward_matrix(src, CoarseChainComplex(f.target, 1, GF(3)), f, 0)


def test_pushforward_needs_morphism():
    src = single_component(2)
    tgt = GBornCoarseSpace(["a", "b"], [], trivial_group(), [[0, 1]])
    f = SpaceMap(src, tgt, [0, 1])
    with pytest.raises(ValueError, match="morphism"):
        chain_pushforward(f, ControlledChain(src, 0, {(0,): 1}, ZZ))


def test_degree_guard():
    for cx in both_complexes(point_space(), 4):
        with pytest.raises(ValueError, match="out of range"):
            cx.homology(4)


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


BRUTE_FORCE_SPACES = [
    lambda: g_can_min(symmetric_group(3)),
    lambda: coset_space(named_group("s3"), named_subgroup(named_group("s3"), "z3")),
    lambda: coset_space(named_group("s3"), named_subgroup(named_group("s3"), "z2")),
    lambda: GBornCoarseSpace(["p", "q", "r"], [], cyclic_group(2), [[0, 1, 2], [1, 0, 2]]),
    # one component, so a stabilizer moves the later coordinates
    lambda: GBornCoarseSpace(["p", "q", "r"], [(0, 2)], cyclic_group(2), [[0, 1, 2], [1, 0, 2]]),
    lambda: _joined(coset_space(named_group("s3"), named_subgroup(named_group("s3"), "z2"))),
]
BRUTE_FORCE_IDS = ["s3", "s3/z3", "s3/z2", "swap", "swap-joined", "s3/z2-joined"]


@pytest.mark.parametrize("make", BRUTE_FORCE_SPACES, ids=BRUTE_FORCE_IDS)
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


def _brute_force_moore_basis(space, n):
    """The brute-force basis without the least tuples that have x_i = x_(i+1)."""
    return [t for t in _brute_force_basis(space, n) if all(a != b for a, b in zip(t, t[1:]))]


@pytest.mark.parametrize("make", BRUTE_FORCE_SPACES, ids=BRUTE_FORCE_IDS)
@pytest.mark.parametrize("equivariant", [True, False])
def test_moore_basis_matches_brute_force(make, equivariant):
    space = make() if equivariant else underlying(make())
    for n in range(4):
        basis = controlled_tuple_basis(space, n, kind=MooreBasis)
        assert basis == _brute_force_moore_basis(space, n)
        assert all(basis.index[t] == i for i, t in enumerate(basis))


def _homology_corpus():
    spaces = [g_can_min(cyclic_group(k)) for k in (2, 3, 4)] + [m() for m in BRUTE_FORCE_SPACES]
    rng = random.Random(0)
    return spaces + [random_space(rng) for _ in range(20)]


@pytest.mark.parametrize("domain", [ZZ, QQ, GF(2), GF(3)], ids=["Z", "Q", "F2", "F3"])
def test_moore_and_full_complexes_have_equal_homology(domain):
    # the degenerate tuples span an acyclic subcomplex (Eilenberg-Mac Lane)
    for space in _homology_corpus():
        moore, full = both_complexes(space, 4, domain)
        assert profile(moore) == profile(full)


def test_cap_bounds_the_representatives(monkeypatch):
    # degree 3 of s3 has 6^4 = 1296 plain tuples, 216 orbit representatives
    # and 5^3 = 125 nondegenerate ones
    s3 = g_can_min(symmetric_group(3))
    assert len(controlled_tuple_basis(underlying(s3), 3)) == 1296
    monkeypatch.setattr(chains_module, "TUPLE_CAP", 216)
    assert len(TupleChainComplex(s3, max_degree=3, domain=ZZ).bases[3]) == 216
    monkeypatch.setattr(chains_module, "TUPLE_CAP", 125)
    cx = CoarseChainComplex(s3, max_degree=3, domain=ZZ)
    assert len(cx.bases[3]) == 125
    assert [(h.betti, h.torsion) for h in (cx.homology(n) for n in range(3))] == [
        (1, ()), (0, (2,)), (0, ()),
    ]
    built = []
    real = Matrix.from_columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "from_columns", lambda *a, **k: built.append(1) or real(*a, **k))
        mp.setattr(chains_module, "TUPLE_CAP", 124)
        with pytest.raises(ValueError, match="more than 124"):
            CoarseChainComplex(s3, max_degree=3, domain=ZZ)
        mp.setattr(chains_module, "TUPLE_CAP", 215)
        with pytest.raises(ValueError, match="more than 215"):
            TupleChainComplex(s3, max_degree=3, domain=ZZ)
    assert built == []


# -- OrbitBasis.matrix against the orbit-summed construction ----------------


def collect(target, plain, domain):
    """Rewrite an invariant plain chain in the orbit-sum coordinates of
    `target`, asserting that it is constant on every orbit, also on the
    orbits outside the basis, which are then dropped."""
    col = {}
    seen = set()
    for tup in plain:
        if tup in seen:
            continue
        orbit = target.orbit(tup)
        seen |= orbit
        vals = {plain.get(member, domain.zero) for member in orbit}
        assert len(vals) == 1, f"{tup}: not constant on its orbit"
        v = vals.pop()
        if v != domain.zero and target._kept(tup):
            col[target.index[min(orbit)]] = v
    return col


def orbit_summed_matrix(basis, target, image, domain):
    """The reference: sum `image` over every member of each source orbit,
    then `collect` the plain sum on the target basis, which checks that it
    is constant on orbits before it drops the orbits outside the basis."""
    cols = []
    for rep in basis:
        plain = {}
        for member in basis.orbit(rep):
            for tup, val in image(member).items():
                plain[tup] = plain.get(tup, 0) + val
        cols.append(collect(target, finished(plain, domain), domain))
    return Matrix.from_columns(cols, len(target), domain)


def _s3_mod(sub):
    s3 = named_group("s3")
    return coset_space(s3, named_subgroup(s3, sub))


def _to_cosets(group, sub, target):
    """g -> gH from g_can_min(group) onto `target`, a space on group/sub."""
    cosets = group.left_cosets(named_subgroup(group, sub))
    return SpaceMap(g_can_min(group), target,
                    [next(i for i, c in enumerate(cosets) if g in c) for g in range(len(group))])


def _oracle_spaces():
    """Free and non-free spaces: a stabilizer that is a whole group, a
    proper one, a trivial action of a nontrivial group, and random draws."""
    rng = random.Random(5)
    return ([point_space(named_group("s3")), _s3_mod("z3"), _s3_mod("z2"),
             _joined(_s3_mod("z3")), _joined(_s3_mod("z2")), g_can_min(cyclic_group(4)),
             g_can_min(symmetric_group(3)), underlying(g_can_min(cyclic_group(3))),
             BRUTE_FORCE_SPACES[4]()]
            + [random_space(rng) for _ in range(4)])


def _oracle_maps():
    """Equivariant maps onto non-free targets, identities and collapses."""
    s3 = named_group("s3")
    maps = [_to_cosets(s3, sub, _joined(_s3_mod(sub))) for sub in ("z3", "z2")]
    maps.append(SpaceMap(g_can_min(s3), point_space(s3), [0] * 6))
    maps.append(SpaceMap(_joined(_s3_mod("z2")), point_space(s3), [0] * 3))
    swap = BRUTE_FORCE_SPACES[4]()
    maps.append(SpaceMap(swap, point_space(swap.group), [0] * 3))
    maps.append(SpaceMap.identity(_joined(_s3_mod("z2"))))
    return maps


ORACLE_DOMAINS = [ZZ, QQ, GF(2), GF(3)]
ORACLE_IDS = ["Z", "Q", "F2", "F3"]


def _assert_matches_oracle(basis, target, image, domain):
    fast = basis.matrix(target, image, domain)
    assert fast == orbit_summed_matrix(basis, target, image, domain)
    return fast


@pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=ORACLE_IDS)
def test_matrix_matches_the_orbit_summed_boundary_and_cyclic_maps(domain):
    nonzero = 0
    for space in _oracle_spaces():
        for kind in (OrbitBasis, MooreBasis):
            bases = [controlled_tuple_basis(space, n, kind) for n in range(5)]
            for n in range(1, 5):
                nonzero += not _assert_matches_oracle(
                    bases[n], bases[n - 1], _boundary_of_tuple, domain).is_zero()
        full = [controlled_tuple_basis(space, n) for n in range(4)]
        for n in range(4):
            sign = -1 if n % 2 else 1
            _assert_matches_oracle(full[n], full[n], lambda t: {(t[-1],) + t[:-1]: sign}, domain)
        for n in range(3):
            _assert_matches_oracle(full[n], full[n + 1], _xc_s_norm, domain)
            _assert_matches_oracle(full[n], full[n + 1], lambda t: {(t[-1],) + t: 1}, domain)
    assert nonzero


@pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=ORACLE_IDS)
def test_matrix_matches_the_orbit_summed_pushforwards(domain):
    for f in _oracle_maps():
        for kind in (CoarseChainComplex, TupleChainComplex):
            src, tgt = kind(f.source, 3, domain), kind(f.target, 3, domain)
            for n in range(4):
                one = domain.one
                reference = orbit_summed_matrix(src.bases[n], tgt.bases[n],
                                                lambda t: {tuple(map(f, t)): one}, domain)
                assert pushforward_matrix(src, tgt, f, n) == reference


def test_matrix_weights_each_image_by_the_orbit_size_ratio():
    # the 6-element orbit of a point of g_can_min(s3) lands on the 2-point
    # orbit of s3/z3: each point of the target is hit three times
    s3 = named_group("s3")
    f = _to_cosets(s3, "z3", _joined(_s3_mod("z3")))
    src, tgt = CoarseChainComplex(f.source, 1, ZZ), CoarseChainComplex(f.target, 1, ZZ)
    assert pushforward_matrix(src, tgt, f, 0).to_dense() == [[3]]
    # (e, g) lands on a degenerate tuple for the two g != e in z3
    (row,) = pushforward_matrix(src, tgt, f, 1).to_dense()
    assert sorted(row) == [0, 0, 3, 3, 3]


def test_matrix_calls_the_image_once_per_representative():
    s3 = g_can_min(symmetric_group(3))
    for kind in (OrbitBasis, MooreBasis):
        basis, prev = (controlled_tuple_basis(s3, n, kind) for n in (3, 2))
        calls = []

        def image(tup):
            calls.append(tup)
            return _boundary_of_tuple(tup)

        basis.matrix(prev, image, ZZ)
        assert calls == list(basis)


def test_matrix_rejects_a_fractional_weight_and_a_tuple_outside_the_target():
    z2 = cyclic_group(2)
    pt, x = (controlled_tuple_basis(sp, 0) for sp in (point_space(z2), g_can_min(z2)))
    # the fixed point's orbit has one member and (0,)'s two: weight 1/2
    with pytest.raises(InvariantError, match="divides its source orbit fails in degree 0"):
        pt.matrix(x, lambda t: {(0,): 1}, QQ)
    # p and q are swapped and lie in no component with r: (p, r) is not controlled
    swap = BRUTE_FORCE_SPACES[3]()
    with pytest.raises(InvariantError, match="target basis orbit fails in degree 1"):
        controlled_tuple_basis(swap, 0).matrix(controlled_tuple_basis(swap, 1),
                                               lambda t: {(t[0], 2): 1}, QQ)


def test_pushforward_matrix_needs_an_equivariant_map():
    x = g_can_min(cyclic_group(2))
    f = SpaceMap(x, x, [0, 0])  # controlled, since x is one component
    src, tgt = CoarseChainComplex(x, 1, ZZ), CoarseChainComplex(x, 1, ZZ)
    with pytest.raises(ValueError, match="not equivariant"):
        pushforward_matrix(src, tgt, f, 0)
