import random

import pytest

import coarsehom.chains as chains_module
import coarsehom.homology as homology_module
import coarsehom.trace as trace_module
from coarsehom.axioms import (
    _acyclic_degrees,
    _iterated_cone,
    all_partition_spaces,
    check_coarse_invariance,
    check_excision,
    check_flasqueness,
    check_group_algebra_agreement,
    check_identity_suite,
    check_morita,
    check_u_continuity,
    fuzz_suite,
    nerve_fits_budget,
    random_complementary_pair,
    random_equivalence,
    random_space,
)
from coarsehom.groups import cyclic_group, symmetric_group, trivial_group
from coarsehom.linalg import Matrix, ZZ
from coarsehom.spaces import GBornCoarseSpace, SpaceMap, g_can_min, empty_space, point_space


def two_components():
    g = trivial_group()
    return GBornCoarseSpace(["a", "b", "c"], [(0, 1)], group=g, action=[[0, 1, 2]])


def collapse_equivalence():
    # one coarse component on both sides, so the section is controlled too
    g = cyclic_group(2)
    x = GBornCoarseSpace(
        ["a0", "a1", "b0", "b1"],
        [(0, 2), (0, 1)],
        group=g,
        action=[[0, 1, 2, 3], [1, 0, 3, 2]],
    )
    y = g_can_min(g)
    return SpaceMap(x, y, [0, 1, 0, 1])


def test_invariance_holds_for_a_real_equivalence():
    report = check_coarse_invariance(collapse_equivalence(), max_degree=3)
    assert report.ok, report.details


def test_invariance_rejects_a_non_equivalence():
    space = two_components()
    f = SpaceMap(space, point_space(), [0, 0, 0])
    report = check_coarse_invariance(f)
    assert not report.ok
    assert "not a coarse equivalence" in report.details[0]


def test_coarse_invariance_builds_each_chain_complex_once(monkeypatch):
    built = []
    init = chains_module.CoarseChainComplex.__init__

    def counting(self, space, *args, **kwargs):
        built.append(space)
        init(self, space, *args, **kwargs)

    monkeypatch.setattr(chains_module.CoarseChainComplex, "__init__", counting)
    f = collapse_equivalence()
    assert check_coarse_invariance(f, max_degree=3).ok
    assert len(built) == 2
    assert {id(sp) for sp in built} == {id(f.source), id(f.target)}


def test_cone_machinery_sees_integral_failure():
    # multiplication by two on the point: a betti-level iso whose cone has torsion
    d = [Matrix(0, 1, ZZ), Matrix(1, 1, ZZ), Matrix(1, 1, ZZ)]
    doubling = [Matrix.from_dense([[2]], ZZ) for _ in range(3)]
    cone = _iterated_cone([d, d], [doubling], 2, ZZ)
    bad = _acyclic_degrees(cone, 2)
    assert bad and "torsion (2,)" in bad[0]
    identity = [Matrix.identity(1, ZZ) for _ in range(3)]
    cone = _iterated_cone([d, d], [identity], 2, ZZ)
    assert _acyclic_degrees(cone, 2) == []


def test_excision_on_a_disjoint_pair():
    space = two_components()
    report = check_excision(space, ["a", "b"], ["c"], max_degree=3)
    assert report.ok, report.details


def test_excision_with_overlap():
    g = trivial_group()
    space = GBornCoarseSpace(["a", "b", "c"], [(0, 1), (1, 2)], group=g, action=[[0, 1, 2]])
    report = check_excision(space, [0, 1], [0, 1, 2], max_degree=3)
    assert report.ok, report.details


def test_excision_builds_no_trace_context(monkeypatch):
    # the nerve half of the check needs the four nerves and their b, not phi
    def refuse(self, *args, **kwargs):
        raise AssertionError("check_excision built a TraceContext")

    monkeypatch.setattr(trace_module.TraceContext, "__init__", refuse)
    report = check_excision(two_components(), ["a", "b"], ["c"], max_degree=3)
    assert report.ok, report.details


def test_excision_rejects_a_non_pair():
    space = two_components()
    report = check_excision(space, ["a"], ["c"])
    assert not report.ok
    assert "not a complementary pair" in report.details[0]


def test_u_continuity_on_group_spaces():
    for group in (cyclic_group(2), cyclic_group(3)):
        report = check_u_continuity(g_can_min(group))
        assert report.ok, report.details


def test_u_continuity_counts_needed_generators():
    space = two_components()
    report = check_u_continuity(space)
    assert report.ok
    assert "after 1 of 1" in report.details[-1]


def test_u_continuity_on_an_integer_labelled_space():
    # labels 0, 2, 1, 3 at positions 0..3: read as positions, the restricted
    # generators would join each point to its translate
    space = GBornCoarseSpace([0, 2, 1, 3], [(0, 2)], cyclic_group(2),
                             [[0, 1, 2, 3], [1, 0, 3, 2]])
    report = check_u_continuity(space)
    assert report.ok, report.details
    assert "after 1 of 1" in report.details[-1]


def test_group_algebra_agreement_small():
    for group in (trivial_group(), cyclic_group(2)):
        report = check_group_algebra_agreement(group, max_degree=3)
        assert report.ok, report.details


def test_flasqueness_exhaustive_small_spaces():
    spaces = all_partition_spaces(3)
    # Bell numbers 1, 1, 2, 5 for zero through three points
    assert len(spaces) == 9
    for space in spaces:
        report = check_flasqueness(space)
        assert report.ok, report.details
    assert check_flasqueness(empty_space()).ok


def test_morita_on_group_spaces():
    assert check_morita(g_can_min(cyclic_group(2))).ok
    assert check_morita(two_components()).ok


def test_identity_suite_runs():
    assert check_identity_suite(g_can_min(cyclic_group(3)), max_degree=3).ok


def test_identity_suite_reports_a_failed_identity(monkeypatch, sign_flipped_mixed):
    monkeypatch.setattr(homology_module, "to_mixed", sign_flipped_mixed)
    report = check_identity_suite(g_can_min(cyclic_group(2)), 3)
    assert not report.ok
    assert "bB + Bb = 0 (sign-convention bug) fails in degree 2" in report.details[0]


def test_random_space_is_deterministic_and_budgeted():
    a = random_space(random.Random(42))
    b = random_space(random.Random(42))
    assert a.points == b.points
    assert a.entourage_generators == b.entourage_generators
    assert len(a.group) == len(b.group)
    for _ in range(10):
        space = random_space(random.Random(_))
        assert space.n <= 6
        assert nerve_fits_budget(space)
        assert all(len(space.stabilizer(x)) == 1 for x in range(space.n))


def test_random_equivalence_fuzz():
    rng = random.Random(1)
    for _ in range(3):
        f = random_equivalence(rng)
        assert f.source.n > f.target.n
        report = check_coarse_invariance(f, max_degree=2)
        assert report.ok, report.details


def test_random_pair_fuzz():
    rng = random.Random(2)
    for _ in range(3):
        space, z, ys = random_complementary_pair(rng)
        report = check_excision(space, z, ys, max_degree=2)
        assert report.ok, report.details


def test_fuzz_suite_all_green():
    reports = fuzz_suite(seed=0, budget=2, max_degree=2)
    for report in reports:
        assert report.ok, (report.name, report.details)


def test_big_object_budget_rejects_large_end_algebras():
    g = trivial_group()
    full = GBornCoarseSpace(
        [f"p{i}" for i in range(6)],
        [(i, i + 1) for i in range(5)],
        group=g,
        action=[list(range(6))],
    )
    assert not nerve_fits_budget(full)
    assert nerve_fits_budget(g_can_min(symmetric_group(3)))
