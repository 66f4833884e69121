"""Cyclic nerves, mixed complexes, HH and HC against hand-computed values."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import coarsehom.cyclic as cyclic_module
from coarsehom.controlled import endomorphism_algebra, generator, orbit_objects
from coarsehom.cyclic import (
    additive_cyclic_nerve,
    algebra_cyclic_module,
    hc,
    hh,
    to_mixed,
    tot_B,
)
from coarsehom.groups import cyclic_group, symmetric_group, trivial_group
from coarsehom.linalg import GF, QQ, InvariantError, Matrix, finished, rank
from coarsehom.spaces import GBornCoarseSpace, g_can_min, point_space


def algebra_of(space, domain=QQ):
    return endomorphism_algebra(generator(space, domain))


def two_points(connected):
    gens = [(0, 1)] if connected else []
    return GBornCoarseSpace(["a", "b"], gens, trivial_group(), [[0, 1]])


def commutator_hh0(alg):
    """Independent HH_0 oracle: dim E minus the rank of the commutator span."""
    n = alg.dimension
    cols = []
    basis = [{i: alg.domain.one} for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = alg.multiply(basis[i], basis[j])
            ji = alg.multiply(basis[j], basis[i])
            col = dict(ij)
            for k, v in ji.items():
                col[k] = col.get(k, 0) - v
            col = finished(col, alg.domain)
            if col:
                cols.append(col)
    m = Matrix.from_columns(cols, n, alg.domain)
    return n - rank(m)


# ----------------------------------------------------------- ground field


def test_ground_field_dims_and_homology():
    m = algebra_cyclic_module(algebra_of(point_space()), 4)
    assert m.dims == [1, 1, 1, 1, 1]
    mix = to_mixed(m)
    assert [hh(mix, n).betti for n in range(4)] == [1, 0, 0, 0]
    assert [hc(mix, n).betti for n in range(4)] == [1, 0, 1, 0]


def test_ground_field_B_pattern():
    # B alternates: multiplication by 2, 0, by 6, ... on one-dimensional slots
    mix = to_mixed(algebra_cyclic_module(algebra_of(point_space()), 4))
    assert mix.B(0).to_dense() == [[Fraction(2)]]
    assert mix.B(1).to_dense() == [[Fraction(0)]]
    assert mix.B(2).to_dense() == [[Fraction(6)]]
    assert mix.b(1).to_dense() == [[Fraction(0)]]
    assert mix.b(2).to_dense() == [[Fraction(1)]]


def test_tot_of_one_dimensional_mixed_complex():
    mix = to_mixed(algebra_cyclic_module(algebra_of(point_space()), 4))
    tot = tot_B(mix)
    assert tot.dims == [1, 1, 2, 2, 3]


# ------------------------------------------------------------ k x k, M_2


def test_product_algebra_dims_are_powers():
    m = algebra_cyclic_module(algebra_of(two_points(False)), 3)
    assert m.dims == [2, 4, 8, 16]


def test_product_algebra_homology():
    mix = to_mixed(algebra_cyclic_module(algebra_of(two_points(False)), 4))
    assert [hh(mix, n).betti for n in range(4)] == [2, 0, 0, 0]
    assert [hc(mix, n).betti for n in range(4)] == [2, 0, 2, 0]


def test_matrix_algebra_dims():
    m = algebra_cyclic_module(algebra_of(two_points(True)), 1)
    assert m.dims == [4, 16]


def test_matrix_algebra_is_morita_trivial():
    mix = to_mixed(algebra_cyclic_module(algebra_of(two_points(True)), 3))
    assert [hh(mix, n).betti for n in range(3)] == [1, 0, 0]
    assert hc(mix, 0).betti == 1


# --------------------------------------------------------- group algebras


def test_group_algebra_hh0_counts_conjugacy_classes():
    for grp, classes in ((cyclic_group(2), 2), (cyclic_group(3), 3), (symmetric_group(3), 3)):
        alg = algebra_of(g_can_min(grp))
        assert commutator_hh0(alg) == classes
        mix = to_mixed(algebra_cyclic_module(alg, 2))
        assert hh(mix, 0).betti == classes


def test_hh0_equals_commutator_oracle_mod_p():
    alg = algebra_of(g_can_min(cyclic_group(2)), GF(3))
    mix = to_mixed(algebra_cyclic_module(alg, 2))
    assert hh(mix, 0).betti == commutator_hh0(alg) == 2


def test_z2_nerve_full_profile():
    nerve = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 4)
    assert nerve.dims == [2, 4, 8, 16, 32]
    mix = to_mixed(nerve)
    assert [hh(mix, n).betti for n in range(4)] == [2, 0, 0, 0]
    assert [hc(mix, n).betti for n in range(4)] == [2, 0, 2, 0]


# ------------------------------------------------- nerve/algebra agreement


def test_single_object_nerve_matches_algebra_module():
    x = g_can_min(cyclic_group(2))
    gen = generator(x, QQ)
    nerve = additive_cyclic_nerve([gen], 3)
    alg = algebra_cyclic_module(endomorphism_algebra(gen), 3)
    assert nerve.dims == alg.dims
    for n in range(1, 4):
        for i in range(n + 1):
            assert nerve.face(n, i) == alg.face(n, i)
    for n in range(4):
        assert nerve.cyclic(n) == alg.cyclic(n)
    for n in range(3):
        for i in range(n + 1):
            assert nerve.degeneracy(n, i) == alg.degeneracy(n, i)


# ----------------------------------------------------- convention policing


def test_extra_outer_sign_breaks_identities(sign_flipped_mixed):
    m = algebra_cyclic_module(algebra_of(two_points(False)), 3)
    with pytest.raises(ValueError, match="sign-convention"):
        sign_flipped_mixed(m)


def test_identity_suite_runs_at_construction():
    m = algebra_cyclic_module(algebra_of(two_points(False)), 3)
    assert m.check_identities()


def _all_simplicial_pairs_hold(m):
    """The pairwise oracle: d_i d_j = d_(j-1) d_i for every i < j."""
    return all(
        m.face(n - 1, i) @ m.face(n, j) == m.face(n - 1, j - 1) @ m.face(n, i)
        for n in range(2, m.max_degree + 1) for j in range(n + 1) for i in range(j)
    )


@pytest.mark.parametrize("make", [
    lambda: additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 4),
    lambda: additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(3)), GF(5)), 3),
    lambda: additive_cyclic_nerve(orbit_objects(g_can_min(symmetric_group(3)), QQ), 3),
    lambda: algebra_cyclic_module(algebra_of(two_points(True)), 3),
], ids=["z2", "z3-F5", "s3", "two-points"])
def test_identity_check_agrees_with_every_simplicial_pair(make):
    m = make()
    assert m.check_identities()
    assert _all_simplicial_pairs_hold(m)


def test_a_wrong_face_is_a_named_internal_error():
    m = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 3)
    wrong = m.face(2, 1).scale(2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "face", lambda n, i: wrong if (n, i) == (2, 1) else type(m).face(m, n, i))
        with pytest.raises(InvariantError, match="fails in degree 2") as err:
            m.check_identities()
    assert err.value.degree == 2


def test_faces_conjugate_by_t_but_not_simplicial_are_caught():
    # degree-2 faces rebuilt from a wrong d_0 as d_i = (-1)^i t^i d_0 t^(-i)
    # pass every cyclic check, so only the d_0 d_j check can catch them
    m = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 3)
    t1, t2 = m.cyclic(1), m.cyclic(2)
    bump = Matrix.zeros(m.dims[1], m.dims[2], QQ)
    bump.set(0, 0, 1)
    faces = [m.face(2, 0) + bump]
    for i in (1, 2):
        faces.append((t1 @ faces[-1] @ t2 @ t2).scale(-1))  # t2^(-1) = t2^2
    m._faces[2] = faces
    with pytest.raises(InvariantError, match="simplicial identity d_0 d_"):
        m.check_identities()
    assert not _all_simplicial_pairs_hold(m)


# ----------------------------------------------------------- edge behavior


def test_empty_object_list_gives_zero_module():
    m = additive_cyclic_nerve([], 3)
    assert m.dims == [0, 0, 0, 0]
    mix = to_mixed(m)
    assert hh(mix, 0).betti == 0
    assert hc(mix, 2).betti == 0


def test_nerve_domain_must_be_the_objects_domain():
    objects = orbit_objects(g_can_min(cyclic_group(3)), GF(5))
    with pytest.raises(ValueError, match="domain"):
        additive_cyclic_nerve(objects, 2, domain=QQ)
    assert additive_cyclic_nerve(objects, 2, domain=GF(5)).domain is GF(5)
    assert additive_cyclic_nerve([], 2, domain=GF(5)).domain is GF(5)


def test_degree_guard():
    with pytest.raises(ValueError, match="basis elements"):
        algebra_cyclic_module(algebra_of(g_can_min(symmetric_group(3))), 4, cap=100)


def test_nerve_cap_fails_before_any_operator_is_built():
    # degree 3 of the s3 nerve has 6^4 = 1296 keys
    objects = orbit_objects(g_can_min(symmetric_group(3)), QQ)
    assert additive_cyclic_nerve(objects, 3, cap=1296).dims == [6, 36, 216, 1296]
    built = []
    real = cyclic_module.NerveBasis.matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclic_module.NerveBasis, "matrix",
                   lambda *a, **k: built.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="degree 3 needs more than 1295 basis elements"):
            additive_cyclic_nerve(objects, 3, cap=1295)
    assert built == []


def test_only_cyclic_reads_hom_spaces():
    # the nerve's key layout lives in `cyclic.NerveBasis`; other modules read
    # keys, factors and coordinates through it and the nerve data
    offenders = []
    for path in sorted(Path(cyclic_module.__file__).parent.glob("*.py")):
        if path.name == "cyclic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "hom":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_each_complex_has_one_builder():
    # the nerve's mixed complex is built by `homology.space_mixed_complex`
    # and the coarse boundaries by `chains`; everyone else reads those
    owners = {"additive_cyclic_nerve": "homology.py", "to_mixed": "homology.py",
              "_boundary_on": "chains.py"}
    offenders = []
    for path in sorted(Path(cyclic_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in owners and owners[name] != path.name:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_degree_out_of_range():
    mix = to_mixed(algebra_cyclic_module(algebra_of(point_space()), 2))
    with pytest.raises(ValueError, match="out of range"):
        hh(mix, 2)
    with pytest.raises(ValueError, match="out of range"):
        hc(mix, 2)
    m = algebra_cyclic_module(algebra_of(point_space()), 2)
    with pytest.raises(ValueError):
        m.face(0, 0)
    with pytest.raises(ValueError):
        m.degeneracy(2, 0)


def test_mod_p_nerve_identities_hold():
    nerve = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(3)), GF(5)), 3)
    mix = to_mixed(nerve)
    assert hh(mix, 0).betti == 3
