"""Acceptance suite: one test per advertised guarantee, all comparisons exact.

The fuzz corpus is deterministic (seed 0: 25 spaces, 20 coarse equivalences,
20 complementary pairs) and is shared between tests through module-scoped
fixtures, so the heavy nerve builds happen once.

Every check here is an equality of integers, tuples, or sparse matrices over
Q, Z, or F_p; there are no tolerances anywhere.

Known failure, kept on purpose: test_criterion_05b_phi_kills_connes_operator.
The trace phi composed with the Connes operator B is NOT zero in even
degrees; already on the one-point space phi(B(unit tensor)) is twice the
generating 0-chain. What does hold, and is pinned down in test_trace.py, is
that phi intertwines B with the chain-level rotation-insertion operator
(xc_connes_operator). The B-vanishing claim is asserted here as stated and
the failure is the honest answer.
"""

import random
import time

import pytest

from coarsehom import (
    GBornCoarseSpace,
    Matrix,
    QQ,
    TraceContext,
    ZZ,
    all_partition_spaces,
    bar_complex,
    check_coarse_invariance,
    check_excision,
    check_flasqueness,
    check_morita,
    check_u_continuity,
    coset_space,
    cyclic_group,
    empty_space,
    g_can_min,
    named_subgroup,
    nerve_profiles,
    ordinary_profile,
    point_space,
    random_complementary_pair,
    random_equivalence,
    random_space,
    space_mixed_complex,
    symmetric_group,
    tensor,
    trivial_group,
)
from coarsehom.chains import CoarseChainComplex, MooreBasis, TupleChainComplex
from coarsehom.cyclic import hh


N_SPACES = 25
N_EQUIVALENCES = 20
N_PAIRS = 20


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(0)
    return [random_space(rng) for _ in range(N_SPACES)]


@pytest.fixture(scope="module")
def contexts(corpus):
    # one nerve per fuzzed space, built to degree 4 so B(3) exists
    return [TraceContext(s, QQ, max_degree=4) for s in corpus]


@pytest.fixture(scope="module")
def equivalences():
    rng = random.Random(0)
    return [random_equivalence(rng) for _ in range(N_EQUIVALENCES)]


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(0)
    return [random_complementary_pair(rng) for _ in range(N_PAIRS)]


def test_criterion_01_point_has_trivial_profiles():
    """XH = (1,0,0,0), XHH = (1,0,0), XHC = (1,0,1) on the point, under 1s."""
    t0 = time.perf_counter()
    pt = point_space()
    assert [h.betti for h in ordinary_profile(pt, 4, QQ)] == [1, 0, 0, 0]
    hh_p, hc_p = nerve_profiles(pt, 3, QQ)
    assert hh_p == [1, 0, 0]
    assert hc_p == [1, 0, 1]
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_group_algebras_match_bar_oracle():
    """XHH of G_can,min equals the bar-resolution value for k[G], degrees < 3.

    The degree-0 value is the number of conjugacy classes: 2, 3, 3 for
    Z/2, Z/3, S_3.
    """
    t0 = time.perf_counter()
    for group, classes in [
        (cyclic_group(2), 2),
        (cyclic_group(3), 3),
        (symmetric_group(3), 3),
    ]:
        hh_p, _ = nerve_profiles(g_can_min(group), 3, QQ)
        oracle = bar_complex(group.table, 3, QQ)
        assert hh_p == [oracle.hh(n) for n in range(3)]
        assert hh_p[0] == classes == len(group.conjugacy_classes())
    assert time.perf_counter() - t0 < 120.0


def test_criterion_03_coset_tensor_matches_subgroup_algebra():
    """XHH of (S_3/Z_3)_min,max x (S_3)_can,min is the k[Z/3] answer, degrees < 3."""
    t0 = time.perf_counter()
    g = symmetric_group(3)
    h = named_subgroup(g, "z3")
    space = tensor(coset_space(g, h), g_can_min(g))
    mixed = space_mixed_complex(space, 3, QQ)
    oracle = bar_complex(cyclic_group(3).table, 3, QQ)
    assert [hh(mixed, n).betti for n in range(3)] == [oracle.hh(n) for n in range(3)]
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_mixed_identities_on_fuzzed_nerves(contexts):
    """b.b = 0, B.B = 0 and bB + Bb = 0 exactly on every fuzzed nerve.

    to_mixed already asserts these while building, so constructing the
    context fixture is itself a check; this re-states the identities
    degree by degree against freshly composed matrices.
    """
    t0 = time.perf_counter()
    for ctx in contexts:
        assert ctx.nerve.check_identities()
        m = ctx.mixed
        for n in range(1, 5):
            assert (m.b(n - 1) @ m.b(n)).is_zero()
        for n in range(3):
            assert (m.B(n + 1) @ m.B(n)).is_zero()
        for n in range(4):
            anti = m.b(n + 1) @ m.B(n)
            if n >= 1:
                anti = anti + m.B(n - 1) @ m.b(n)
            assert anti.is_zero()
    assert time.perf_counter() - t0 < 300.0


def test_criterion_05a_phi_is_a_chain_map(contexts):
    """phi . b = boundary . phi as matrices, degrees 1..3, every fuzzed space."""
    t0 = time.perf_counter()
    for ctx in contexts:
        for n in range(1, 4):
            lhs = ctx.phi_matrix(n - 1) @ ctx.mixed.b(n)
            rhs = ctx.boundary_matrix(n) @ ctx.phi_matrix(n)
            assert lhs == rhs
    assert time.perf_counter() - t0 < 300.0


def test_criterion_05b_phi_kills_connes_operator(contexts):
    """phi . B = 0 in degrees <= 3 on every fuzzed space.

    This fails, and the failure is structural, not a bug: phi sends the
    norm-plus-insertion terms of B to rotated trace chains with matching
    signs instead of cancelling ones.  Every space fails in the even
    degrees (already the point has phi(B(unit)) = 2.(pt,pt)), and spaces
    without the point's symmetry fail in odd degrees too.  The identity
    that does hold exactly, phi . B = xc_connes_operator . phi, is
    verified in test_trace.py.
    """
    failures = []
    for i, ctx in enumerate(contexts):
        for n in range(4):
            if not (ctx.phi_matrix(n + 1) @ ctx.mixed.B(n)).is_zero():
                failures.append((i, n))
    assert not failures, (
        f"phi . B is nonzero at (space, degree) {failures}; the composite "
        "adds rotated trace chains instead of cancelling them (already on "
        "the point in degree 0), while phi . B = xc_connes_operator . phi "
        "holds exactly"
    )


def test_criterion_06_phi_splits_over_the_point():
    """phi . iota = id on the point in degrees 0..4."""
    ctx = TraceContext(point_space(), QQ, max_degree=4)
    c = QQ.coerce(7)
    for n in range(5):
        image = ctx.phi(n, ctx.iota(n, c))
        assert image.coefficients == {(0,) * (n + 1): c}
    assert ctx.iota(2, 0) == {}


def test_criterion_07_equivalences_preserve_all_three_theories(equivalences):
    """20 fuzzed coarse equivalences: XH, XHH, XHC betti agree, degrees < 3."""
    t0 = time.perf_counter()
    for f in equivalences:
        report = check_coarse_invariance(f, max_degree=3)
        assert report.ok, report.details
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_complementary_pairs_excise(pairs):
    """20 fuzzed complementary pairs: both mapping cones acyclic, degrees < 3."""
    t0 = time.perf_counter()
    for space, z, y in pairs:
        report = check_excision(space, z, y, max_degree=3)
        assert report.ok, report.details
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_entourage_chains_stabilize(corpus):
    """Adding generators one at a time reaches the full homology, every space."""
    for space in corpus:
        report = check_u_continuity(space, max_degree=3)
        assert report.ok, report.details


def test_criterion_10_morita_reduction(corpus):
    """Multi-object nerve equals the single-generator algebra, degrees < 3."""
    for space in corpus:
        report = check_morita(space, max_degree=3)
        assert report.ok, report.details


def test_criterion_11_no_finite_space_is_flasque(corpus):
    """Flasqueness is False on every nonempty fuzzed space and True on the
    empty space; on up to 3 points the self-map search is exhaustive."""
    for space in corpus:
        assert space.n > 0
        report = check_flasqueness(space)
        assert report.ok, report.details
    assert check_flasqueness(empty_space()).ok
    spaces = all_partition_spaces(3)
    assert len(spaces) == 9
    for space in spaces:
        report = check_flasqueness(space)
        assert report.ok, report.details


def _complete_space(k):
    return GBornCoarseSpace(
        list(range(k)),
        [(0, i) for i in range(1, k)],
        trivial_group(),
        [list(range(k))],
    )


def _cone_homotopy(cx, n):
    """H_n sending (x_0..x_n) to (0, x_0..x_n); needs one coarse component.

    On the Moore complex (0, 0, ...) is degenerate, so H is zero there."""
    rows, cols = cx.bases[n + 1], cx.bases[n]
    m = Matrix.zeros(len(rows), len(cols), ZZ)
    for j, tup in enumerate(cols):
        if cx.basis_kind is not MooreBasis or tup[0] != 0:
            m.set(rows.index[(0,) + tup], j, 1)
    return m


def test_criterion_12_ordinary_homology_counts_components():
    """XH_0 = number of coarse components on every space with <= 4 points,
    and XH vanishes in degrees 1..3 on single components, cross-checked by
    an explicit contracting homotopy (dH + Hd = 1), on the Moore and on the
    full tuple complex."""
    kinds = (CoarseChainComplex, TupleChainComplex)
    for space in all_partition_spaces(4):
        for kind in kinds:
            assert kind(space, 1, ZZ).homology(0).betti == len(space.components())
    for k in range(1, 5):
        space = _complete_space(k)
        for cx in (kind(space, 4, ZZ) for kind in kinds):
            assert cx.homology(0).betti == 1
            for n in range(1, 4):
                dn, dn1 = cx.d[n], cx.d[n + 1]
                cone = dn1 @ _cone_homotopy(cx, n) + _cone_homotopy(cx, n - 1) @ dn
                assert cone == Matrix.identity(dn.ncols, ZZ)
                result = cx.homology(n)
                assert result.betti == 0 and result.torsion == ()
