"""Controlled objects, hom bases, endomorphism algebras, pushforward."""

from fractions import Fraction

import pytest

from coarsehom.controlled import (
    ControlledMorphism,
    ControlledObject,
    FiniteAlgebra,
    HomSpace,
    compose,
    endomorphism_algebra,
    generator,
    identity_morphism,
    orbit_objects,
    orbit_regular_object,
    pushforward_object,
    pushforward_morphism,
    require_nerve_admissible,
)
from coarsehom.groups import cyclic_group, symmetric_group, trivial_group
from coarsehom.linalg import GF, QQ, Matrix
from coarsehom.spaces import GBornCoarseSpace, SpaceMap, g_can_min, point_space
from conftest import direct_sum


def two_points(connected):
    gens = [(0, 1)] if connected else []
    return GBornCoarseSpace(["a", "b"], gens, trivial_group(), [[0, 1]])


def z2_canmin():
    return g_can_min(cyclic_group(2))


# ---------------------------------------------------------------- objects


def test_generator_point():
    m = generator(point_space(), QQ)
    assert m.dims == (1,)
    assert m.total_dim == 1


def test_orbit_regular_needs_an_orbit():
    x = z2_canmin()
    with pytest.raises(ValueError):
        orbit_regular_object(x, (0,), QQ)


def test_object_validation_rejects_bad_identity():
    x = two_points(True)
    rho = [[Matrix.from_dense([[2]], QQ), Matrix.from_dense([[1]], QQ)]]
    with pytest.raises(ValueError, match="identity"):
        ControlledObject(x, (1, 1), rho, QQ)


def test_object_validation_rejects_cocycle_failure():
    x = z2_canmin()
    e = [Matrix.identity(1, QQ), Matrix.identity(1, QQ)]
    bad = [Matrix.from_dense([[-1]], QQ), Matrix.from_dense([[1]], QQ)]
    with pytest.raises(ValueError, match="cocycle"):
        ControlledObject(x, (1, 1), [e, bad], QQ)


def test_object_validation_rejects_varying_orbit_dims():
    x = z2_canmin()
    with pytest.raises(ValueError, match="orbit"):
        ControlledObject(x, (1, 2), None, QQ)


def test_sign_cocycle_is_accepted():
    # rho(g) = -1 on both points of the swapped pair squares to +1
    x = z2_canmin()
    e = [Matrix.identity(1, QQ), Matrix.identity(1, QQ)]
    sign = [Matrix.from_dense([[-1]], QQ), Matrix.from_dense([[-1]], QQ)]
    m = ControlledObject(x, (1, 1), [e, sign], QQ)
    assert m.total_dim == 2


# ------------------------------------------------------------- morphisms


def test_block_outside_entourage_rejected():
    x = two_points(False)
    m = generator(x, QQ)
    with pytest.raises(ValueError, match="entourage"):
        ControlledMorphism(m, m, {(0, 1): Matrix.identity(1, QQ)})


def test_non_equivariant_block_rejected():
    x = z2_canmin()
    m = orbit_regular_object(x, (0, 1), QQ)
    with pytest.raises(ValueError, match="equivariance"):
        ControlledMorphism(m, m, {(0, 0): Matrix.identity(1, QQ)})


def test_compose_follows_block_paths():
    x = two_points(True)
    m = generator(x, QQ)
    e01 = ControlledMorphism(m, m, {(0, 1): Matrix.identity(1, QQ)})
    e10 = ControlledMorphism(m, m, {(1, 0): Matrix.identity(1, QQ)})
    loop = compose(e01, e10)  # 1 -> 0 -> 1
    assert loop.support() == ((1, 1),)
    assert compose(loop, loop) == loop
    ident = identity_morphism(m)
    assert compose(ident, e01) == e01
    assert compose(e01, ident) == e01
    assert compose(e01, e01).is_zero()


def test_morphism_addition_and_scaling():
    x = two_points(True)
    m = generator(x, QQ)
    a = ControlledMorphism(m, m, {(0, 1): Matrix.identity(1, QQ)})
    s = a + a
    assert s.block(0, 1).get(0, 0) == Fraction(2)
    assert (s + s.scale(-1)).is_zero()


# ------------------------------------------------------------- hom bases


def test_hom_dims_match_group_algebra_on_canmin():
    for grp, order in ((cyclic_group(2), 2), (cyclic_group(3), 3), (symmetric_group(3), 6)):
        x = g_can_min(grp)
        m = generator(x, QQ)
        assert len(HomSpace(m, m).basis) == order


def test_hom_dim_discrete_pair():
    m = generator(two_points(False), QQ)
    assert len(HomSpace(m, m).basis) == 2


def test_hom_dim_connected_pair_is_full_matrix_algebra():
    m = generator(two_points(True), QQ)
    assert len(HomSpace(m, m).basis) == 4


def test_hom_between_different_components_is_zero():
    x = two_points(False)
    objs = orbit_objects(x, QQ)
    assert len(HomSpace(objs[0], objs[1]).basis) == 0


def test_hom_between_free_orbits():
    g = cyclic_group(2)
    x = GBornCoarseSpace([0, 1, 2, 3], [(0, 1), (0, 2)], g, [[0, 1, 2, 3], [1, 0, 3, 2]])
    a, b = orbit_objects(x, QQ)
    assert a.dims == (1, 1, 0, 0) and b.dims == (0, 0, 1, 1)
    basis = HomSpace(a, b).basis
    assert len(basis) == 2
    for mor in basis:
        mor._validate()  # solver output really is equivariant and controlled


def test_hom_coordinates_roundtrip():
    x = z2_canmin()
    m = orbit_regular_object(x, (0, 1), QQ)
    hom = HomSpace(m, m)
    two_t = hom.basis[0].scale(2) + hom.basis[1].scale(-3)
    assert hom.coordinates(two_t) == {0: Fraction(2), 1: Fraction(-3)}


def test_hom_coordinates_reject_outside_span():
    x = z2_canmin()
    m = orbit_regular_object(x, (0, 1), QQ)
    hom = HomSpace(m, m)
    rogue = ControlledMorphism(m, m, {(0, 0): Matrix.identity(1, QQ)}, check=False)
    with pytest.raises(ValueError, match="span"):
        hom.coordinates(rogue)


# -------------------------------------------------- endomorphism algebras


def test_end_of_z2_orbit_is_the_group_algebra():
    alg = endomorphism_algebra(orbit_regular_object(z2_canmin(), (0, 1), QQ))
    assert alg.dimension == 2
    # basis order: the off-diagonal (swap) element first, then the identity
    assert alg.unit == {1: Fraction(1)}
    assert alg.struct[0][0] == {1: Fraction(1)}  # t * t = e
    assert alg.struct[0][1] == alg.struct[1][0] == {0: Fraction(1)}


def test_end_of_connected_pair_is_m2():
    alg = endomorphism_algebra(generator(two_points(True), QQ))
    assert alg.dimension == 4
    # cells in order: 0->0, 0->1, 1->0, 1->1; e1 after e2 walks 1->0->1
    assert alg.multiply({1: QQ.one}, {2: QQ.one}) == {3: QQ.one}
    assert alg.multiply({2: QQ.one}, {1: QQ.one}) == {0: QQ.one}
    assert alg.unit == {0: Fraction(1), 3: Fraction(1)}


def test_end_of_z3_is_commutative():
    alg = endomorphism_algebra(generator(g_can_min(cyclic_group(3)), GF(5)))
    assert alg.dimension == 3
    for i in range(3):
        for j in range(3):
            assert alg.struct[i][j] == alg.struct[j][i]


def test_finite_algebra_rejects_broken_unit():
    one = QQ.one
    with pytest.raises(ValueError, match="unit"):
        FiniteAlgebra(1, ["e"], [[{0: one}]], {}, QQ)


def test_finite_algebra_rejects_non_associative():
    # unit laws hold but (x*x)*y = y*y = 0 while x*(x*y) = x*e = x
    one = QQ.one
    struct = [
        [{0: one}, {1: one}, {2: one}],
        [{1: one}, {2: one}, {0: one}],
        [{2: one}, {}, {}],
    ]
    with pytest.raises(ValueError, match="associativity"):
        FiniteAlgebra(3, ["e", "x", "y"], struct, {0: one}, QQ)


def test_direct_sum_doubles_hom_dimension():
    x = z2_canmin()
    o = orbit_regular_object(x, (0, 1), QQ)
    d = direct_sum(o, o)
    ControlledObject(d.space, d.dims, d.rho, d.domain)  # passes full validation
    assert d.dims == (2, 2)
    assert len(HomSpace(d, d).basis) == 8


# ------------------------------------------------------------ pushforward


def test_pushforward_object_collapses_fibers():
    x = two_points(True)
    pt = point_space()
    f = SpaceMap(x, pt, [0, 0])
    m = generator(x, QQ)
    pm = pushforward_object(f, m)
    assert pm.dims == (2,)
    assert len(HomSpace(pm, pm).basis) == 4


def test_pushforward_morphism_is_functorial():
    x = two_points(True)
    pt = point_space()
    f = SpaceMap(x, pt, [0, 0])
    m = generator(x, QQ)
    push = pushforward_object(f, m)
    a = ControlledMorphism(m, m, {(0, 1): Matrix.identity(1, QQ)})
    b = ControlledMorphism(m, m, {(1, 0): Matrix.from_dense([[3]], QQ)})
    fa = pushforward_morphism(f, a, pushed_source=push, pushed_target=push)
    fb = pushforward_morphism(f, b, pushed_source=push, pushed_target=push)
    fab = pushforward_morphism(f, compose(a, b), pushed_source=push, pushed_target=push)
    assert compose(fa, fb) == fab
    fid = pushforward_morphism(f, identity_morphism(m), pushed_source=push, pushed_target=push)
    assert fid == identity_morphism(push)
    fa._validate()


def test_pushforward_of_equivariant_data():
    g = cyclic_group(2)
    x = GBornCoarseSpace([0, 1, 2, 3], [(0, 1), (0, 2)], g, [[0, 1, 2, 3], [1, 0, 3, 2]])
    y = g_can_min(g)
    f = SpaceMap(x, y, [0, 1, 0, 1])
    m = generator(x, QQ)
    pm = pushforward_object(f, m)
    assert pm.dims == (2, 2)
    ControlledObject(pm.space, pm.dims, pm.rho, pm.domain)


def test_pushforward_requires_a_morphism():
    src = two_points(True)
    tgt = two_points(False)
    uncontrolled = SpaceMap(src, tgt, [0, 1])  # tears the component apart
    with pytest.raises(ValueError, match="morphism"):
        pushforward_object(uncontrolled, generator(src, QQ))
    pt = point_space()
    inc = SpaceMap(pt, tgt, [0])
    assert pushforward_object(inc, generator(pt, QQ)).dims == (1, 0)


# ------------------------------------------------------------- the guard


def test_nerve_guard_rejects_bad_characteristic():
    x = z2_canmin()
    with pytest.raises(ValueError, match="characteristic"):
        require_nerve_admissible(x, GF(2))
    require_nerve_admissible(x, GF(3))
    require_nerve_admissible(x, QQ)


def test_nerve_guard_rejects_non_free_actions():
    g = cyclic_group(2)
    x = point_space(g)  # the swap fixes the unique point
    with pytest.raises(ValueError, match="stabilizer"):
        require_nerve_admissible(x, QQ)


def test_nerve_guard_accepts_trivial_group():
    require_nerve_admissible(two_points(True), QQ)
