"""Cyclic nerves, mixed complexes, HH and HC against hand-computed values."""

import ast
import gc
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import coarsehom.cyclic as cyclic_module
from coarsehom.axioms import (
    check_coarse_invariance,
    check_excision,
    check_flasqueness,
    check_identity_suite,
    check_morita,
    check_u_continuity,
    fuzz_suite,
    random_complementary_pair,
    random_equivalence,
    random_space,
)
from coarsehom.bar_oracle import bar_complex
from coarsehom.chains import controlled_tuple_basis
from coarsehom.controlled import endomorphism_algebra, generator, identity_morphism, orbit_objects
from coarsehom.cyclic import (
    NerveBasis,
    NormalizedNerveBasis,
    _NerveData,
    TotComplex,
    additive_cyclic_nerve,
    hochschild_cyclic_betti,
    normalized_mixed_complex,
    to_mixed,
)
from coarsehom.groups import cyclic_group, named_group, symmetric_group, trivial_group
from coarsehom.homology import nerve_complex, nerve_profiles, ordinary_profile, space_mixed_complex
from coarsehom.linalg import GF, QQ, InvariantError, Matrix, finished, rank
from coarsehom.spaces import GBornCoarseSpace, g_can_min, point_space
from coarsehom.trace import TraceContext, xc_connes_operator, xc_cyclic_operator


def algebra_of(space, domain=QQ):
    return endomorphism_algebra(generator(space, domain))


def generator_nerve(space, max_degree, domain=QQ):
    """The one-object nerve: the cyclic module of End(generator)."""
    return additive_cyclic_nerve([generator(space, domain)], max_degree)


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
    m = generator_nerve(point_space(), 4)
    assert m.dims == [1, 1, 1, 1, 1]
    assert _profiles(to_mixed(m), 4) == ([1, 0, 0, 0], [1, 0, 1, 0])


def test_ground_field_B_pattern():
    # B alternates: multiplication by 2, 0, by 6, ... on one-dimensional slots
    mix = to_mixed(generator_nerve(point_space(), 4))
    assert mix.B(0).to_dense() == [[Fraction(2)]]
    assert mix.B(1).to_dense() == [[Fraction(0)]]
    assert mix.B(2).to_dense() == [[Fraction(6)]]
    assert mix.b(1).to_dense() == [[Fraction(0)]]
    assert mix.b(2).to_dense() == [[Fraction(1)]]


def test_tot_of_one_dimensional_mixed_complex():
    mix = to_mixed(generator_nerve(point_space(), 4))
    tot = TotComplex(mix.b_complex, mix.big_b)
    assert tot.dims == [1, 1, 2, 2, 3]


def _assert_squares_to_zero(cx):
    for n in range(1, len(cx.d)):
        assert (cx.d[n - 1] @ cx.d[n]).is_zero(), n


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["Q", "F7"])
def test_tot_squares_to_zero_on_s3(domain):
    # TotComplex does not check d^2 = 0 itself: this catches a layout bug
    mixed = nerve_complex(g_can_min(symmetric_group(3)), 4, domain)
    _assert_squares_to_zero(TotComplex(mixed.b_complex, mixed.big_b))


def test_tot_squares_to_zero_on_random_spaces():
    for seed in range(10):
        space = random_space(random.Random(seed))
        for mixed in (nerve_complex(space, 4, QQ), space_mixed_complex(space, 3, QQ)):
            _assert_squares_to_zero(TotComplex(mixed.b_complex, mixed.big_b))


# ------------------------------------------------------------ k x k, M_2


def test_product_algebra_dims_are_powers():
    m = generator_nerve(two_points(False), 3)
    assert m.dims == [2, 4, 8, 16]


def test_product_algebra_homology():
    mix = to_mixed(generator_nerve(two_points(False), 4))
    assert _profiles(mix, 4) == ([2, 0, 0, 0], [2, 0, 2, 0])


def test_matrix_algebra_dims():
    m = generator_nerve(two_points(True), 1)
    assert m.dims == [4, 16]


def test_matrix_algebra_is_morita_trivial():
    mix = to_mixed(generator_nerve(two_points(True), 3))
    assert _profiles(mix, 3) == ([1, 0, 0], [1, 0, 1])


# --------------------------------------------------------- group algebras


def test_group_algebra_hh0_counts_conjugacy_classes():
    for grp, classes in ((cyclic_group(2), 2), (cyclic_group(3), 3), (symmetric_group(3), 3)):
        assert commutator_hh0(algebra_of(g_can_min(grp))) == classes
        mix = to_mixed(generator_nerve(g_can_min(grp), 2))
        assert mix.b_complex.homology(0).betti == classes


def test_hh0_equals_commutator_oracle_mod_p():
    alg = algebra_of(g_can_min(cyclic_group(2)), GF(3))
    mix = to_mixed(generator_nerve(g_can_min(cyclic_group(2)), 2, GF(3)))
    assert mix.b_complex.homology(0).betti == commutator_hh0(alg) == 2


def test_z2_nerve_full_profile():
    nerve = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 4)
    assert nerve.dims == [2, 4, 8, 16, 32]
    mix = to_mixed(nerve)
    assert _profiles(mix, 4) == ([2, 0, 0, 0], [2, 0, 2, 0])


# ------------------------------------------------- nerve/algebra agreement


@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                         ids=["z2", "z3", "s3"])
def test_single_object_nerve_data_matches_the_structure_constants(group):
    # `endomorphism_algebra` is the structure-constant oracle of the nerve
    # data on one object whose unit is already a basis vector
    gen = generator(g_can_min(group), QQ)
    data = _NerveData([gen])
    alg = endomorphism_algebra(gen)
    assert len(alg.unit) == 1
    assert data.dim(0, 0) == alg.dimension
    assert {data.unit_index[0]: 1} == alg.unit
    for i in range(alg.dimension):
        for j in range(alg.dimension):
            assert data.comp(0, 0, 0, i, j) == alg.struct[i][j]


# ----------------------------------------------------- convention policing


def test_extra_outer_sign_breaks_identities(sign_flipped_mixed):
    m = generator_nerve(two_points(False), 3)
    with pytest.raises(ValueError, match="sign-convention"):
        sign_flipped_mixed(m)


def test_identity_suite_runs_at_construction():
    m = generator_nerve(two_points(False), 3)
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
    lambda: generator_nerve(two_points(True), 3),
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


def test_a_t_of_the_wrong_order_is_caught():
    # -1 has order 2: t^3 = 1 fails in degree 2 and t^2 = 1 holds in degree 1
    m = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 2)
    m._cyc[1] = Matrix.identity(m.dims[1], QQ).scale(-1)
    m._cyc[2] = Matrix.identity(m.dims[2], QQ).scale(-1)
    with pytest.raises(InvariantError, match=r"t\^3 = 1 fails in degree 2"):
        m.check_identities()


def test_faces_conjugate_by_t_but_not_simplicial_are_caught():
    # degree-2 faces rebuilt from a wrong d_0 as d_i = (-1)^i t^i d_0 t^(-i)
    # pass every cyclic check, so only the d_0 d_j check can catch them
    m = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(2)), QQ), 3)
    t1, t2 = m.cyclic(1), m.cyclic(2)
    bump = Matrix(m.dims[1], m.dims[2], QQ)
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
    assert mix.b_complex.homology(0).betti == 0
    assert TotComplex(mix.b_complex, mix.big_b).homology(2).betti == 0


def test_nerve_domain_must_be_the_objects_domain():
    objects = orbit_objects(g_can_min(cyclic_group(3)), GF(5))
    with pytest.raises(ValueError, match="domain"):
        additive_cyclic_nerve(objects, 2, domain=QQ)
    assert additive_cyclic_nerve(objects, 2, domain=GF(5)).domain is GF(5)
    assert additive_cyclic_nerve([], 2, domain=GF(5)).domain is GF(5)


def test_degree_guard(monkeypatch):
    monkeypatch.setattr(cyclic_module, "BASIS_CAP", 100)
    with pytest.raises(ValueError, match="basis elements"):
        generator_nerve(g_can_min(symmetric_group(3)), 4)


def test_nerve_cap_fails_before_any_operator_is_built(monkeypatch):
    # degree 3 of the s3 nerve has 6^4 = 1296 keys
    objects = orbit_objects(g_can_min(symmetric_group(3)), QQ)
    monkeypatch.setattr(cyclic_module, "BASIS_CAP", 1296)
    assert additive_cyclic_nerve(objects, 3).dims == [6, 36, 216, 1296]
    monkeypatch.setattr(cyclic_module, "BASIS_CAP", 1295)
    built = []
    real = cyclic_module.NerveBasis.matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclic_module.NerveBasis, "matrix",
                   lambda *a, **k: built.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="degree 3 needs more than 1295 basis elements"):
            additive_cyclic_nerve(objects, 3)
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
    # the nerve's mixed complexes are built by `homology.space_mixed_complex`
    # (full) and `homology.nerve_complex` (normalized), and the coarse
    # boundaries by `chains`; everyone else reads those
    owners = {"additive_cyclic_nerve": "homology.py", "to_mixed": "homology.py",
              "normalized_mixed_complex": "homology.py", "_boundary_on": "chains.py"}
    offenders = []
    for path in sorted(Path(cyclic_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in owners and owners[name] != path.name:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _callers(name):
    """'module:Scope.function' of every call to `name` in the package."""
    callers = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call)
                  and getattr(child.func, "id", getattr(child.func, "attr", None)) == name):
                callers.append(f"{module}:{'.'.join(scope)}")
            visit(child, inner, module)

    for path in sorted(Path(cyclic_module.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.stem)
    return sorted(callers)


def test_only_the_trace_and_the_identity_suite_build_the_full_nerve():
    # every XHH check runs on the normalized nerve; the full one is for t
    assert _callers("space_mixed_complex") == [
        "axioms:check_identity_suite", "trace:TraceContext.__init__"]


def test_degree_out_of_range():
    mix = to_mixed(generator_nerve(point_space(), 2))
    with pytest.raises(ValueError, match="out of range"):
        mix.b_complex.homology(2)
    with pytest.raises(ValueError, match="out of range"):
        TotComplex(mix.b_complex, mix.big_b).homology(2)
    m = generator_nerve(point_space(), 2)
    with pytest.raises(ValueError):
        m.face(0, 0)
    with pytest.raises(ValueError):
        m.degeneracy(2, 0)


def test_mod_p_nerve_identities_hold():
    nerve = additive_cyclic_nerve(orbit_objects(g_can_min(cyclic_group(3)), GF(5)), 3)
    mix = to_mixed(nerve)
    assert mix.b_complex.homology(0).betti == 3


# ------------------------------------------------------- normalized nerve


def _profiles(mixed, top):
    tot = TotComplex(mixed.b_complex, mixed.big_b)
    return ([mixed.b_complex.homology(n).betti for n in range(top)],
            [tot.homology(n).betti for n in range(top)])


def test_normalized_nerve_cap_fails_before_any_operator_is_built(monkeypatch):
    # degree 3 of the normalized s3 nerve has 6 * 5^3 = 750 keys, of 1296
    objects = orbit_objects(g_can_min(symmetric_group(3)), QQ)
    monkeypatch.setattr(cyclic_module, "BASIS_CAP", 750)
    assert normalized_mixed_complex(objects, 3).dims == [6, 30, 150, 750]
    monkeypatch.setattr(cyclic_module, "BASIS_CAP", 749)
    built = []
    real = cyclic_module.NerveBasis.matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclic_module.NerveBasis, "matrix",
                   lambda *a, **k: built.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="degree 3 needs more than 749 basis elements"):
            normalized_mixed_complex(objects, 3)
    assert built == []


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                         ids=["z2", "z3", "s3"])
def test_normalized_and_full_nerve_agree_on_group_algebras(group, domain):
    space = g_can_min(group)
    assert nerve_profiles(space, 4, domain) == _profiles(space_mixed_complex(space, 4, domain), 4)


def _fuzz_probes(seed=0, budget=20):
    """The `random_space` probes of `fuzz_suite(seed, budget)`, in its rng order."""
    rng = random.Random(seed)
    for _ in range(budget):
        random_equivalence(rng)
        random_complementary_pair(rng)
        yield random_space(rng)


def test_normalized_and_full_nerve_agree_on_the_fuzz_probes():
    spread = 0
    for probe in _fuzz_probes():
        gen = generator(probe, QQ)
        for objects in (None, [gen]):
            full = _profiles(space_mixed_complex(probe, 3, QQ, objects), 3)
            assert nerve_profiles(probe, 3, QQ, objects) == full
        spread += len(endomorphism_algebra(gen).unit) > 1
    # the Morita generators include units spread over several basis vectors
    assert spread > 0


def _every_tuple_keys(data, n, normalized):
    """The degree-n keys listed over every object tuple, empty ones included,
    in `product` order: the enumeration the closed walks must reproduce."""
    keys = []
    for o in product(range(data.count), repeat=n + 1):
        ranges = []
        for j in range(n + 1):
            s, t = o[(j + 1) % (n + 1)], o[j]
            ranges.append([k for k in range(data.dim(s, t))
                           if not (normalized and j and s == t and k == data.unit_index[s])])
        keys += [(o, m) for m in product(*ranges)]
    return keys


def _nerve_data_cases():
    for probe in _fuzz_probes():
        yield orbit_objects(probe, QQ)
        yield [generator(probe, QQ)]
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        yield orbit_objects(g_can_min(group), QQ)


def test_nerve_walk_lists_the_keys_of_every_tuple_in_order():
    several = 0
    for objects in _nerve_data_cases():
        data = _NerveData(objects)
        several += data.count > 1
        for n in range(4):
            for cls, normalized in ((NerveBasis, False), (NormalizedNerveBasis, True)):
                basis = cls(data, n)
                assert list(basis) == _every_tuple_keys(data, n, normalized)
                assert basis.index == {key: i for i, key in enumerate(basis)}
    assert several > 0


def _power_series_connes(n, t_n, front, t_up):
    """(1 - t) s N with N = 1 + t + ... + t^n summed as matrix powers of t:
    the textbook B in degree n, from t and the extra degeneracy s alone."""
    dom = t_n.domain
    norm = power = Matrix.identity(t_n.ncols, dom)
    for _ in range(n):
        power = power @ t_n
        norm = norm + power
    return (Matrix.identity(t_up.ncols, dom) - t_up) @ front @ norm


def _on_the_quotient(m, full_src, full_tgt, norm_src, norm_tgt):
    """A full-nerve operator on the normalized columns, degenerate rows dropped."""
    rows = {}
    for i, key in enumerate(full_tgt):
        if key in norm_tgt.index:
            rows[i] = norm_tgt.index[key]
        else:
            assert norm_tgt.degenerate(key)
    cols = [{rows[i]: v for i, v in m.column(full_src.index[key]).items() if i in rows}
            for key in norm_src]
    return Matrix.from_columns(cols, len(norm_tgt), m.domain)


def _connes_corpus():
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        yield g_can_min(group)
    yield from _fuzz_probes()


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["Q", "F7"])
def test_nerve_connes_operators_match_the_power_series(domain):
    # full B = (1 - t) s N from the key map; normalized B = s N is its quotient
    for space in _connes_corpus():
        for objects in (orbit_objects(space, domain), [generator(space, domain)]):
            nerve = additive_cyclic_nerve(objects, 3)
            full = to_mixed(nerve)
            norm = normalized_mixed_complex(objects, 3)
            for n in range(3):
                src, tgt = nerve.basis[n], nerve.basis[n + 1]
                front = cyclic_module._insert_unit(src, tgt, -1)
                oracle = _power_series_connes(n, nerve.cyclic(n), front, nerve.cyclic(n + 1))
                assert full.B(n) == oracle
                assert norm.B(n) == _on_the_quotient(full.B(n), src, tgt, norm.basis[n],
                                                     norm.basis[n + 1])


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["Q", "F7"])
def test_chain_connes_operator_matches_the_power_series(domain):
    for space in _connes_corpus():
        for n in range(3):
            basis = controlled_tuple_basis(space, n)
            up = controlled_tuple_basis(space, n + 1)
            front = basis.matrix(up, lambda tup: {(tup[-1],) + tup: 1}, domain)
            oracle = _power_series_connes(n, xc_cyclic_operator(space, n, domain), front,
                                          xc_cyclic_operator(space, n + 1, domain))
            assert xc_connes_operator(space, n, domain) == oracle


def test_no_reference_cycle_outlives_a_computation():
    # bases, nerve data and complexes are freed by reference counting, not
    # left for the cyclic collector
    rng = random.Random(0)
    f = random_equivalence(rng)
    space, z, y = random_complementary_pair(rng)
    probe = random_space(rng)
    s3 = g_can_min(symmetric_group(3))
    checks = [(check_coarse_invariance, (f, 3)), (check_excision, (space, z, y, 3)),
              (check_morita, (probe, 3)), (check_identity_suite, (probe, 3)),
              (check_u_continuity, (probe,)), (check_flasqueness, (probe,))]
    gc.collect()
    gc.disable()
    try:
        TraceContext(s3, QQ, max_degree=3)
        ordinary_profile(s3, 3)
        nerve_profiles(s3, 3, QQ)
        for check, args in checks:
            assert check(*args).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def _zero_hom_probe():
    """A fuzz probe with three orbits, one of them cut off from the others
    (zero hom spaces) and two-dimensional hom spaces among the other two."""
    for probe in _fuzz_probes():
        objects = orbit_objects(probe, QQ)
        data = _NerveData(objects)
        dims = [[data.dim(s, t) for t in range(data.count)] for s in range(data.count)]
        if dims == [[2, 0, 2], [0, 1, 0], [2, 0, 2]]:
            return objects, data
    raise AssertionError("no such fuzz probe")


def _record_visits(mp):
    visits = []
    real = NerveBasis._ranges

    def ranges(self, o):
        visits.append((self.data, self.degree, o))
        return real(self, o)

    mp.setattr(NerveBasis, "_ranges", ranges)
    return visits


def test_nerve_cap_counts_keys_of_the_nonempty_tuples(monkeypatch):
    objects, data = _zero_hom_probe()
    for cap, build, dims in ((257, additive_cyclic_nerve, [5, 17, 65, 257]),
                             (108, normalized_mixed_complex, [5, 12, 36, 108])):
        monkeypatch.setattr(cyclic_module, "BASIS_CAP", cap)
        assert build(objects, 3).dims == dims
        monkeypatch.setattr(cyclic_module, "BASIS_CAP", cap - 1)
        with pytest.raises(ValueError, match=f"degree 3 needs more than {cap - 1} basis elements"):
            build(objects, 3)
    # the walk is lazy: 16 keys on (0, 0, 0, 0), then 16 more exceed the cap
    monkeypatch.setattr(cyclic_module, "BASIS_CAP", 16)
    with pytest.MonkeyPatch.context() as mp:
        visits = _record_visits(mp)
        with pytest.raises(ValueError, match="degree 3 needs more than 16 basis elements"):
            NerveBasis(data, 3)
    assert [o for _, _, o in visits] == [(0, 0, 0, 0), (0, 0, 0, 2)]


def test_nerve_build_visits_only_tuples_with_keys():
    objects, data = _zero_hom_probe()
    with pytest.MonkeyPatch.context() as mp:
        visits = _record_visits(mp)
        additive_cyclic_nerve(objects, 3)
        normalized_mixed_complex(objects, 3)
    for nerve_data, n, o in visits:
        assert all(nerve_data.dim(o[(j + 1) % (n + 1)], o[j]) for j in range(n + 1)), o
    keyed = sum(len({o for o, _ in _every_tuple_keys(data, n, normalized)})
                for normalized in (False, True) for n in range(4))
    assert len(visits) == keyed == 65
    # over the whole fuzz corpus, 942 of the 14,370 object tuples carry keys
    with pytest.MonkeyPatch.context() as mp:
        visits = _record_visits(mp)
        assert all(report.ok for report in fuzz_suite(0, 20, 3))
    assert len(visits) == 942


@pytest.mark.parametrize("p, hh_ref, hc_ref", [
    (2, [3, 2, 2, 2], [3, 1, 4, 2]),
    (3, [3, 1, 1, 2], [3, 0, 3, 1]),
])
def test_modular_normalized_nerve_matches_the_bar_oracle(p, hh_ref, hc_ref):
    # at the cyclic level, where |G| = 6 is no obstacle
    group = symmetric_group(3)
    mixed = normalized_mixed_complex(orbit_objects(g_can_min(group), GF(p)), 4)
    oracle = bar_complex(group.table, 4, GF(p))
    assert hochschild_cyclic_betti(mixed.b_complex, mixed.big_b) == (hh_ref, hc_ref)
    assert [oracle.hh(n) for n in range(4)] == hh_ref
    assert [oracle.hc(n) for n in range(4)] == hc_ref


def _spy_on_tot(monkeypatch):
    """The total complexes `hochschild_cyclic_betti` builds, in order."""
    built = []

    class Spy(TotComplex):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(cyclic_module, "TotComplex", Spy)
    return built


@pytest.mark.parametrize("name, p, hh_ref, hc_ref", [
    ("z2", 2, [2, 2, 2, 2, 2], [2, 1, 3, 2, 4]),
    ("z4", 2, [4, 4, 4, 4, 4], [4, 2, 6, 4, 8]),
    pytest.param("s3", 2, [3, 2, 2, 2, 2], [3, 1, 4, 2, 5], marks=pytest.mark.slow),
    pytest.param("s3", 3, [3, 1, 1, 2, 2], [3, 0, 3, 1, 4], marks=pytest.mark.slow),
], ids=["z2-F2", "z4-F2", "s3-F2", "s3-F3"])
def test_sbi_fallback_matches_the_total_complex_and_the_bar_oracle(monkeypatch, name, p,
                                                                   hh_ref, hc_ref):
    # p divides |G|, so HH_n != 0 for n >= 1, B_* may be nonzero, and HC is
    # read off the reduced total complex
    group = named_group(name)
    mixed = normalized_mixed_complex(orbit_objects(g_can_min(group), GF(p)), 5)
    built = _spy_on_tot(monkeypatch)
    assert hochschild_cyclic_betti(mixed.b_complex, mixed.big_b) == (hh_ref, hc_ref)
    assert len(built) == 1
    monkeypatch.undo()
    assert _profiles(mixed, 5) == (hh_ref, hc_ref)
    oracle = bar_complex(group.table, 5, GF(p))
    assert ([oracle.hh(n) for n in range(5)], [oracle.hc(n) for n in range(5)]) == (
        hh_ref, hc_ref)


def test_z2_over_f2_needs_the_connecting_map():
    # HC_n = HH_n + HC_(n-2) would give [2, 2, 4, 4, 6]: rho_2, rho_4 and
    # rho_5 are 1
    mixed = normalized_mixed_complex(orbit_objects(g_can_min(cyclic_group(2)), GF(2)), 5)
    hh, hc = hochschild_cyclic_betti(mixed.b_complex, mixed.big_b)
    assert hc == [2, 1, 3, 2, 4]
    naive = []
    for n, h in enumerate(hh):
        naive.append(h + (naive[n - 2] if n >= 2 else 0))
    assert naive == [2, 2, 4, 4, 6]


def test_a_connecting_rank_out_of_bounds_is_a_named_internal_error(monkeypatch):
    # every rank of the total complex raised by its degree puts rho_n 2 too high
    mixed = normalized_mixed_complex(orbit_objects(g_can_min(cyclic_group(2)), GF(2)), 5)

    class Inflated(TotComplex):
        def boundary_rank(self, n):
            return super().boundary_rank(n) + n

    monkeypatch.setattr(cyclic_module, "TotComplex", Inflated)
    with pytest.raises(InvariantError, match="SBI bound"):
        hochschild_cyclic_betti(mixed.b_complex, mixed.big_b)


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["Q", "F7"])
def test_free_nerve_profiles_build_no_total_complex(monkeypatch, domain):
    # HH_n = 0 for n >= 1 on a free action, so every B_* is zero
    built = _spy_on_tot(monkeypatch)
    assert nerve_profiles(g_can_min(symmetric_group(3)), 4, domain) == (
        [3, 0, 0, 0], [3, 0, 3, 0])
    assert built == []


@pytest.mark.slow
def test_s3_normalized_nerve_to_degree_5():
    assert nerve_profiles(g_can_min(symmetric_group(3)), 5, QQ) == (
        [3, 0, 0, 0, 0], [3, 0, 3, 0, 3])


@pytest.mark.slow
def test_s3_normalized_nerve_to_degree_6():
    # 93,750 top basis elements, each boundary compressed by the one below
    assert nerve_profiles(g_can_min(symmetric_group(3)), 6, QQ) == (
        [3, 0, 0, 0, 0, 0], [3, 0, 3, 0, 3, 0])


def test_a_spread_unit_becomes_a_basis_vector():
    # End of the generator on two unrelated points is k x k, unit e_0 + e_1
    gen = generator(two_points(False), QQ)
    assert endomorphism_algebra(gen).unit == {0: 1, 1: 1}
    data = additive_cyclic_nerve([gen], 1).data
    assert data.coordinates(0, 0, identity_morphism(gen)) == {0: 1}
    assert data.unit_index == [0]
    assert data.morphism(0, 0, 0).blocks == identity_morphism(gen).blocks
    assert data.coordinates(0, 0, data.morphism(0, 0, 1)) == {1: 1}


def test_a_unit_that_is_not_a_basis_vector_is_a_named_internal_error(monkeypatch):
    # coordinates read in the solved basis, without the swap to the identity
    monkeypatch.setattr(cyclic_module._NerveData, "coordinates",
                        lambda self, s, t, mor: self.hom[s][t].coordinates(mor))
    with pytest.raises(InvariantError, match="identity of nerve object 0 is one basis vector"):
        nerve_profiles(two_points(False), 2, QQ, [generator(two_points(False), QQ)])


def test_a_failed_unit_law_is_a_named_internal_error(monkeypatch):
    # the identity's coordinates are e_0, but basis morphism 0 is not the identity
    gen = generator(two_points(False), QQ)
    monkeypatch.setattr(cyclic_module._NerveData, "morphism",
                        lambda self, s, t, k: self.hom[s][t].basis[k])
    with pytest.raises(InvariantError, match="unit law"):
        nerve_profiles(gen.space, 2, QQ, [gen])


def test_s_norm_tests_one_term_of_a_key_with_an_identity_in_front(monkeypatch):
    # factor 0 of a key is a factor j >= 1 of every term of s N, so an
    # identity there makes the whole column zero on the normalized nerve
    data = cyclic_module._NerveData(orbit_objects(g_can_min(cyclic_group(3)), QQ))
    basis, up = (NormalizedNerveBasis(data, n) for n in (2, 3))
    tested = []
    real = NormalizedNerveBasis.degenerate
    monkeypatch.setattr(NormalizedNerveBasis, "degenerate",
                        lambda self, key: tested.append(key) or real(self, key))
    s_norm = cyclic_module._s_norm(basis, up)
    unit = data.unit_index
    front = [j for j, (o, m) in enumerate(basis) if m[0] == unit[o[0]] and o[1] == o[0]]
    assert front and len(tested) == len(front)
    assert all(not s_norm.column(j) for j in front)
    assert all(s_norm.column(j) for j in range(len(basis)) if j not in front)


def test_normalized_matrix_drops_only_degenerate_keys():
    objects = orbit_objects(g_can_min(cyclic_group(3)), QQ)
    data = cyclic_module._NerveData(objects)
    full = cyclic_module.NerveBasis(data, 1)
    norm = cyclic_module.NormalizedNerveBasis(data, 1)
    assert [key for key in full if norm.degenerate(key)] == [
        key for key in full if key not in norm.index]
    unit_key = ((0, 0), (0, data.unit_index[0]))
    assert full.matrix(norm, lambda key: [(unit_key, 1)], QQ).is_zero()
    with pytest.raises(InvariantError, match="lies in the nerve basis"):
        full.matrix(norm, lambda key: [(((0, 0), (0, 99)), 1)], QQ)
