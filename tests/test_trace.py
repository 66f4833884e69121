import random

import pytest

import coarsehom.chains as chains_module
from coarsehom.axioms import random_equivalence
from coarsehom.chains import ControlledChain, TupleChainComplex, pushforward_matrix
from coarsehom.controlled import direct_sum, generator
from coarsehom.groups import cyclic_group, named_group, trivial_group
from coarsehom.linalg import GF, Matrix, QQ, kernel_basis, rank
from coarsehom.spaces import GBornCoarseSpace, SpaceMap, empty_space, g_can_min, point_space
from coarsehom.trace import (
    TraceContext,
    dennis_trace_k0,
    nerve_pushforward_matrix,
    xc_connes_operator,
    xc_cyclic_operator,
)


def point_ctx(max_degree=4, domain=QQ):
    return TraceContext(point_space(), domain, max_degree=max_degree)


def canmin_ctx(k, max_degree=3, domain=QQ):
    return TraceContext(g_can_min(cyclic_group(k)), domain, max_degree=max_degree)


def two_point_line():
    """Two related points, trivial group."""
    g = trivial_group()
    return GBornCoarseSpace(["a", "b"], [(0, 1)], group=g, action=[[0, 1]])


# -- phi on pinned examples ---------------------------------------------------


def test_phi_scales_the_point():
    ctx = point_ctx(max_degree=2)
    c = ctx.phi(0, {0: QQ.coerce(3)})
    assert c.coefficients == {(0,): QQ.coerce(3)}
    assert c.degree == 0


def test_phi_of_a_swap_tensor_swap():
    space = two_point_line()
    ctx = TraceContext(space, QQ, objects=[generator(space, QQ)], max_degree=2)
    hom = ctx.nerve.data.hom[0][0]
    swap = {}
    for i, b in enumerate(hom.basis):
        sup = b.support()
        if sup == ((0, 1),) or sup == ((1, 0),):
            swap[i] = QQ.one
    assert len(swap) == 2
    vec = {}
    for i, ci in swap.items():
        for j, cj in swap.items():
            vec[ctx.nerve.basis[1].index[((0, 0), (i, j))]] = ci * cj
    out = ctx.phi(1, vec)
    assert out.coefficients == {(0, 1): QQ.one, (1, 0): QQ.one}


def test_phi_image_is_invariant_and_controlled():
    ctx = canmin_ctx(3, max_degree=3)
    for n in range(3):
        for idx in range(ctx.nerve.dims[n]):
            chain = ctx.phi(n, {idx: QQ.one})
            # re-run the full constructor checks on the raw coefficients
            rebuilt = ControlledChain(ctx.space, n, chain.coefficients, QQ)
            assert rebuilt.is_invariant()


def test_phi_support_stays_inside_the_block_supports():
    ctx = canmin_ctx(2, max_degree=2)
    n = 1
    for key in ctx.nerve.basis[n]:
        factors = ctx.nerve.basis[n].factors(key)
        allowed = [set(a.blocks) for a in factors]
        chain = ctx._phi_of_basis(n, key)
        for (x0, x1) in chain:
            assert (x0, x1) in allowed[0]
            assert (x1, x0) in allowed[1]


# -- chain map ----------------------------------------------------------------


@pytest.mark.parametrize("make", [point_ctx, lambda: canmin_ctx(2), lambda: canmin_ctx(3)])
def test_phi_intertwines_b_with_the_boundary(make):
    ctx = make()
    for n in range(1, ctx.max_degree + 1):
        left = ctx.phi_matrix(n - 1) @ ctx.mixed.b(n)
        right = ctx.boundary_matrix(n) @ ctx.phi_matrix(n)
        assert left.to_dense() == right.to_dense()


def test_boundary_matrix_reuses_the_context_bases(monkeypatch):
    ctx = canmin_ctx(3)
    # the trace reads the full tuple complex, not the Moore quotient
    assert type(ctx.chains) is TupleChainComplex
    expected = TupleChainComplex(ctx.space, ctx.max_degree, QQ).d

    def no_enumeration(*args, **kwargs):
        raise AssertionError("boundary_matrix enumerated a basis again")

    monkeypatch.setattr(chains_module, "controlled_tuple_basis", no_enumeration)
    assert [ctx.boundary_matrix(n) for n in range(ctx.max_degree + 1)] == expected
    assert all(ctx.boundary_matrix(n) is ctx.chains.d[n] for n in range(ctx.max_degree + 1))
    with pytest.raises(ValueError, match="degree"):
        ctx.boundary_matrix(ctx.max_degree + 1)


def test_trace_context_on_no_orbits_keeps_its_domain():
    ctx = TraceContext(empty_space(), GF(5), max_degree=2)
    assert ctx.nerve.domain is GF(5) and ctx.mixed.domain is GF(5)
    assert ctx.phi_matrix(1).domain is GF(5)


def test_phi_after_b_over_gf5():
    ctx = canmin_ctx(3, max_degree=2, domain=GF(5))
    for n in (1, 2):
        left = ctx.phi_matrix(n - 1) @ ctx.mixed.b(n)
        right = ctx.boundary_matrix(n) @ ctx.phi_matrix(n)
        assert left.to_dense() == right.to_dense()


# -- the B story --------------------------------------------------------------


def test_phi_after_connes_b_is_not_zero_in_even_degrees():
    # already on the point: B(1) = 2 s(1), so phi(B(1)) = 2 (pt, pt)
    ctx = point_ctx(max_degree=3)
    r0 = ctx.phi_matrix(1) @ ctx.mixed.B(0)
    assert r0.to_dense() == [[2]]
    r2 = ctx.phi_matrix(3) @ ctx.mixed.B(2)
    assert r2.to_dense() == [[6]]
    ctx2 = canmin_ctx(2, max_degree=1)
    assert not (ctx2.phi_matrix(1) @ ctx2.mixed.B(0)).is_zero()


def test_phi_after_connes_b_vanishes_on_the_point_in_odd_degrees():
    ctx = point_ctx(max_degree=2)
    assert (ctx.phi_matrix(2) @ ctx.mixed.B(1)).is_zero()


@pytest.mark.parametrize("make", [point_ctx, lambda: canmin_ctx(2), lambda: canmin_ctx(3)])
def test_phi_intertwines_nerve_b_with_the_chain_level_operator(make):
    ctx = make()
    for n in range(ctx.max_degree):
        left = ctx.phi_matrix(n + 1) @ ctx.mixed.B(n)
        right = xc_connes_operator(ctx.space, n, ctx.domain) @ ctx.phi_matrix(n)
        assert left.to_dense() == right.to_dense()


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize(
    "space",
    [point_space(), g_can_min(cyclic_group(2)), g_can_min(cyclic_group(3)),
     g_can_min(named_group("s3"))],
    ids=["point", "z2", "z3", "s3"],
)
def test_chain_level_connes_operator_induces_zero_on_xh(space, domain):
    """The true weaker form of phi . B = 0: B_chain sends every n-cycle to a
    boundary, i.e. rank [d_(n+2) | B_chain K] = rank d_(n+2) for the cycle
    basis K = ker d_n, n = 0..2."""
    chains = TupleChainComplex(space, 4, domain)
    for n in range(3):
        d_n = chains.d[n]
        d_up = chains.d[n + 2]
        cycles = Matrix.from_columns(kernel_basis(d_n), d_n.ncols, domain)
        image = xc_connes_operator(space, n, domain) @ cycles
        assert rank(Matrix.block([[d_up, image]], domain)) == rank(d_up)


def test_chain_cyclic_operator_has_the_right_order():
    space = g_can_min(cyclic_group(2))
    t1 = xc_cyclic_operator(space, 1, QQ)
    assert (t1 @ t1).to_dense() == Matrix.identity(t1.nrows, QQ).to_dense()
    t2 = xc_cyclic_operator(space, 2, QQ)
    assert (t2 @ t2 @ t2).to_dense() == Matrix.identity(t2.nrows, QQ).to_dense()


# -- the section over the point ------------------------------------------------


def test_phi_after_iota_is_the_identity():
    ctx = point_ctx(max_degree=4)
    for n in range(5):
        out = ctx.phi(n, ctx.iota(n, 7))
        assert out.coefficients == {(0,) * (n + 1): QQ.coerce(7)}
    assert ctx.iota(2, 0) == {}


def test_iota_rejects_bigger_spaces():
    ctx = canmin_ctx(2, max_degree=1)
    with pytest.raises(ValueError, match="one-point"):
        ctx.iota(0, 1)


# -- dennis trace ---------------------------------------------------------------


def test_dennis_trace_on_the_point():
    ctx = point_ctx(max_degree=1)
    g = generator(ctx.space, QQ)
    m = direct_sum(direct_sum(g, g), g)
    vec, image = dennis_trace_k0(ctx, m)
    assert vec == {0: QQ.coerce(3)}
    assert image.coefficients == {(0,): QQ.coerce(3)}


def test_dennis_trace_counts_fiber_dimensions():
    ctx = canmin_ctx(2, max_degree=1)
    m = ctx.objects[0]
    vec, image = dennis_trace_k0(ctx, m)
    assert image.coefficients == {(0,): QQ.one, (1,): QQ.one}
    m2 = direct_sum(m, m)
    vec2, image2 = dennis_trace_k0(ctx, m2)
    assert vec2 == {k: 2 * v for k, v in vec.items()}
    assert image2.coefficients == {(0,): QQ.coerce(2), (1,): QQ.coerce(2)}


def test_dennis_trace_needs_the_orbit_regular_list():
    space = point_space()
    g = generator(space, QQ)
    ctx = TraceContext(space, QQ, objects=[direct_sum(g, g)], max_degree=1)
    with pytest.raises(ValueError, match="orbit-regular"):
        dennis_trace_k0(ctx, g)
    other = point_ctx(max_degree=1)
    with pytest.raises(ValueError, match="context"):
        dennis_trace_k0(other, generator(two_point_line(), QQ))


# -- naturality -----------------------------------------------------------------


def collapse_setup():
    g = cyclic_group(2)
    x = GBornCoarseSpace(
        ["a0", "a1", "b0", "b1"],
        [(0, 2)],
        group=g,
        action=[[0, 1, 2, 3], [1, 0, 3, 2]],
    )
    y = g_can_min(g)
    f = SpaceMap(x, y, [0, 1, 0, 1])
    return x, y, f


def test_nerve_pushforward_commutes_with_phi():
    x, y, f = collapse_setup()
    cx = TraceContext(x, QQ, max_degree=2)
    cy = TraceContext(y, QQ, max_degree=2)
    for n in range(3):
        push_chain = pushforward_matrix(cx.chains, cy.chains, f, n)
        push_nerve = nerve_pushforward_matrix(cx.nerve, cy.nerve, f, n)
        left = push_chain @ cx.phi_matrix(n)
        right = cy.phi_matrix(n) @ push_nerve
        assert left.to_dense() == right.to_dense()


def random_setup():
    f = random_equivalence(random.Random(3))
    return f.source, f.target, f


@pytest.mark.parametrize("domain", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("setup", [collapse_setup, random_setup], ids=["collapse", "random"])
def test_nerve_pushforward_is_a_map_of_cyclic_modules(setup, domain):
    x, y, f = setup()
    cx = TraceContext(x, domain, max_degree=3)
    cy = TraceContext(y, domain, max_degree=3)
    push = [nerve_pushforward_matrix(cx.nerve, cy.nerve, f, n) for n in range(4)]
    assert not any(p.is_zero() for p in push)
    for n in range(4):
        assert push[n] @ cx.nerve.cyclic(n) == cy.nerve.cyclic(n) @ push[n]
        for i in range(n + 1):
            if n >= 1:
                assert push[n - 1] @ cx.nerve.face(n, i) == cy.nerve.face(n, i) @ push[n]
            if n < 3:
                assert push[n + 1] @ cx.nerve.degeneracy(n, i) == cy.nerve.degeneracy(n, i) @ push[n]


def test_nerve_pushforward_checks_endpoints():
    x, y, f = collapse_setup()
    cx = TraceContext(x, QQ, max_degree=1)
    cy = TraceContext(y, QQ, max_degree=1)
    with pytest.raises(ValueError, match="endpoints"):
        nerve_pushforward_matrix(cy.nerve, cx.nerve, f, 0)


# -- guards ---------------------------------------------------------------------


def test_phi_degree_guard():
    ctx = point_ctx(max_degree=1)
    with pytest.raises(ValueError, match="degree"):
        ctx.phi_matrix(2)
    with pytest.raises(ValueError, match="degree"):
        ctx.phi(5, {})
