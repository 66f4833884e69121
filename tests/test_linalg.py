import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsehom.linalg as linalg_module
from coarsehom.axioms import _iterated_cone, random_equivalence, random_space
from coarsehom.chains import (CoarseChainComplex, ControlledChain, boundary_of_chain,
                              pushforward_matrix)
from coarsehom.controlled import endomorphism_algebra, generator
from coarsehom.cyclic import TotComplex
from coarsehom.groups import cyclic_group, symmetric_group
from coarsehom.homology import nerve_complex
from coarsehom.linalg import (
    GF,
    QQ,
    ZZ,
    Complex,
    Matrix,
    finished,
    homology_at,
    invariant_factors,
    kernel_basis,
    kernel_data,
    rank,
    smith_normal_form,
)
from coarsehom.spaces import GBornCoarseSpace, SpaceMap, g_can_min
from coarsehom.trace import TraceContext, nerve_pushforward_matrix


def test_rank_hand_examples():
    assert rank(Matrix.from_dense([[1, 2], [2, 4]], QQ)) == 1
    assert rank(Matrix.from_dense([[1, 2], [3, 4]], QQ)) == 2
    assert rank(Matrix(3, 5, QQ)) == 0
    assert rank(Matrix(0, 4, ZZ)) == 0
    assert rank(Matrix.identity(7, GF(3))) == 7
    # rank over Z is the rank over Q, not anything mod-2
    assert rank(Matrix.from_dense([[2, 0], [0, 2]], ZZ)) == 2


def test_kernel_basis_rationals():
    m = Matrix.from_dense([[1, 2], [2, 4]], QQ)
    assert kernel_basis(m) == [{1: Fraction(1), 0: Fraction(-2)}]
    full = Matrix(2, 3, QQ)
    assert kernel_basis(full) == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    assert kernel_basis(Matrix.identity(4, QQ)) == []


def test_kernel_basis_mod_p():
    m = Matrix.from_dense([[1, 1]], GF(2))
    assert kernel_basis(m) == [{1: 1, 0: 1}]
    m3 = Matrix.from_dense([[1, 2, 0], [0, 1, 1]], GF(3))
    for vec in kernel_basis(m3):
        assert m3.mat_vec(vec) == {}


def test_kernel_basis_rejects_integers():
    with pytest.raises(ValueError):
        kernel_basis(Matrix.from_dense([[2]], ZZ))


def _random_matrix(rng, domain, nrows, ncols, lo=-4, hi=4):
    m = Matrix(nrows, ncols, domain)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.6:
                m.set(i, j, rng.randint(lo, hi))
    return m


def test_rank_against_sympy():
    from sympy import Matrix as SymMatrix

    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        m = _random_matrix(rng, QQ, nrows, ncols)
        sym = SymMatrix(nrows, ncols, lambda i, j: m.get(i, j))
        assert rank(m) == sym.rank()


def test_rank_mod_p_against_sympy():
    from sympy import GF as SymGF
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(11)
    for p in (2, 3, 5, 97):
        for _ in range(10):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            dense = [[rng.randint(0, p - 1) for _ in range(ncols)] for _ in range(nrows)]
            m = Matrix.from_dense(dense, GF(p))
            dm = DomainMatrix.from_list(dense, SymGF(p))
            assert rank(m) == dm.rank()


def test_rank_mod_p_sparse_against_sympy():
    from sympy import GF as SymGF
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(13)
    for p in (2, 3, 97):
        for _ in range(12):
            nrows, ncols = rng.randint(1, 30), rng.randint(1, 50)
            density = rng.choice((0.05, 0.1, 0.25))
            if rng.random() < 0.5:
                dense = [
                    [rng.randint(1, p - 1) if rng.random() < density else 0 for _ in range(ncols)]
                    for _ in range(nrows)
                ]
            else:
                # a product through a thin middle: low rank, many dependent rows
                k = rng.randint(1, min(nrows, ncols))
                left = [[rng.randint(0, p - 1) if rng.random() < 0.3 else 0 for _ in range(k)]
                        for _ in range(nrows)]
                right = [[rng.randint(0, p - 1) if rng.random() < density else 0
                          for _ in range(ncols)] for _ in range(k)]
                dense = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                         for row in left]
            m = Matrix.from_dense(dense, GF(p))
            dm = DomainMatrix.from_list(dense, SymGF(p))
            assert rank(m) == dm.rank()


def test_rank_q_fractional_against_sympy():
    from sympy import Matrix as SymMatrix
    from sympy import Rational

    rng = random.Random(17)
    for _ in range(40):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        k = rng.randint(0, 4)
        m = Matrix(nrows, ncols, QQ)
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.5:
                    m.set(i, j, Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        if k and nrows > k:
            # make the last rows rational combinations of the first k
            for i in range(k, nrows):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
                for j in range(ncols):
                    m.set(i, j, sum(c * m.get(r, j) for r, c in enumerate(coeffs)))
        sym = SymMatrix(nrows, ncols, lambda i, j: Rational(m.get(i, j).numerator, m.get(i, j).denominator))
        assert rank(m) == sym.rank()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_vectors_annihilate(data):
    nrows = data.draw(st.integers(0, 5))
    ncols = data.draw(st.integers(0, 5))
    entries = data.draw(st.lists(st.integers(-5, 5), min_size=nrows * ncols, max_size=nrows * ncols))
    m = Matrix(nrows, ncols, QQ)
    for idx, v in enumerate(entries):
        m.set(idx // ncols if ncols else 0, idx % ncols if ncols else 0, v)
    basis = kernel_basis(m)
    assert len(basis) == ncols - rank(m)
    for vec in basis:
        assert m.mat_vec(vec) == {}


def _constraint_system(rng, domain, nrows, ncols):
    """A tall sparse system shaped like a hom-space constraint system: rows
    of about two entries, each a relation a*x_i + b*x_j = 0 inside one group
    of columns that a hidden vector of that group satisfies, plus rows
    pinning single columns to zero, so the kernel is neither 0 nor everything.
    Fractions appear over Q only."""
    groups = {}
    for j in range(ncols):
        groups.setdefault(rng.randrange(max(1, ncols // 3)), []).append(j)
    groups = list(groups.values())
    values = (1, -1, 2, -3, 5) if domain.char else (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    hidden = {j: rng.choice(values) for j in range(ncols)}
    m = Matrix(nrows, ncols, domain)
    for r in range(nrows):
        cols = rng.choice(groups)
        if len(cols) == 1 or rng.random() < 0.05:
            m.set(r, rng.choice(cols), rng.choice(values))
            continue
        i, j = rng.sample(cols, 2)
        scale = rng.choice(values)
        m.set(r, i, scale * hidden[j])
        m.set(r, j, -scale * hidden[i])
    return m


def test_kernel_basis_is_sympys_nullspace():
    from sympy import Matrix as SymMatrix
    from sympy import Rational

    rng = random.Random(41)
    nontrivial = 0
    for _ in range(20):
        ncols = rng.randint(5, 36)
        m = _constraint_system(rng, QQ, rng.randint(20, 180), ncols)
        sym = SymMatrix(m.nrows, ncols, lambda i, j: Rational(Fraction(m.get(i, j)).numerator,
                                                              Fraction(m.get(i, j)).denominator))
        theirs = [{j: Fraction(int(x.p), int(x.q)) for j, x in enumerate(vec) if x}
                  for vec in sym.nullspace()]
        ours = kernel_basis(m)
        assert ours == theirs
        nontrivial += 0 < len(ours) < ncols
    assert nontrivial


@pytest.mark.parametrize("p", [2, 3, 97])
def test_kernel_basis_mod_p_on_constraint_systems(p):
    rng = random.Random(43 + p)
    for _ in range(10):
        ncols = rng.randint(5, 36)
        m = _constraint_system(rng, GF(p), rng.randint(20, 180), ncols)
        basis, free = kernel_data(m)
        assert basis == kernel_basis(m)
        assert len(basis) == ncols - rank(m)
        for vec, f in zip(basis, free):
            assert m.mat_vec(vec) == {}
            assert [vec.get(g, 0) for g in free] == [int(g == f) for g in free]


def test_smith_normal_form_hand():
    s, u, v = smith_normal_form(Matrix.from_dense([[2, 0], [0, 3]], ZZ))
    assert s.to_dense() == [[1, 0], [0, 6]]
    assert invariant_factors(Matrix.from_dense([[1, 1, -1, 1], [0, 0, 2, 0]], ZZ)) == [1, 2]
    assert invariant_factors(Matrix(3, 2, ZZ)) == []
    assert invariant_factors(Matrix.identity(3, ZZ)) == [1, 1, 1]


def test_smith_normal_form_transforms():
    rng = random.Random(23)
    for _ in range(25):
        m = _random_matrix(rng, ZZ, rng.randint(0, 5), rng.randint(0, 5), -6, 6)
        s, u, v = smith_normal_form(m)
        assert (u @ m @ v) == s
        # unimodular: all invariant factors are 1
        assert invariant_factors(u) == [1] * m.nrows
        assert invariant_factors(v) == [1] * m.ncols
        diag = [s.get(i, i) for i in range(min(s.nrows, s.ncols))]
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0


def test_smith_normal_form_against_sympy():
    from sympy import Matrix as SymMatrix
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    rng = random.Random(5)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, ZZ, nrows, ncols, -7, 7)
        ours, _, _ = smith_normal_form(m)
        theirs = sym_snf(SymMatrix(nrows, ncols, lambda i, j: m.get(i, j)))
        mine = [ours.get(i, i) for i in range(min(nrows, ncols))]
        other = [abs(theirs[i, i]) for i in range(min(nrows, ncols))]
        assert mine == other


def _diagonal_factors(s):
    out = [s.get(i, i) for i in range(min(s.nrows, s.ncols))]
    return [v for v in out if v]


def _sympy_factors(m):
    from sympy import Matrix as SymMatrix
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    if not (m.nrows and m.ncols):
        return []
    theirs = sym_snf(SymMatrix(m.nrows, m.ncols, lambda i, j: m.get(i, j)))
    return sorted(abs(theirs[i, i]) for i in range(min(m.nrows, m.ncols)) if theirs[i, i])


def _unitless_matrix(rng, nrows, ncols):
    m = Matrix(nrows, ncols, ZZ)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.6:
                m.set(i, j, rng.choice((-6, -4, -3, -2, 2, 3, 4, 5, 6)))
    return m


def _thin_product(rng, nrows, ncols):
    """A random product through a middle of width k <= both sides."""
    k = rng.randint(1, max(1, min(nrows, ncols)))
    left = _random_matrix(rng, ZZ, nrows, k, -3, 3)
    right = _random_matrix(rng, ZZ, k, ncols, -3, 3)
    return left @ right


@pytest.mark.parametrize(
    "dense, factors",
    [
        ([[2, 0], [0, 3]], [1, 6]),  # no unit anywhere: all in the residual
        ([[1, 2], [2, 3]], [1, 1]),  # column 1 gets its unit only after elimination
        ([[2, 3], [5, 7]], [1, 1]),  # unimodular without a single +-1 entry
        ([[1, 1, 0], [1, -1, 0], [0, 0, 4]], [1, 2, 4]),
        ([[0, 0, 0], [0, 0, 0]], []),
    ],
)
def test_invariant_factors_unit_pivot_cases(dense, factors):
    m = Matrix.from_dense(dense, ZZ)
    assert invariant_factors(m) == factors
    assert _diagonal_factors(smith_normal_form(m)[0]) == factors
    assert _sympy_factors(m) == factors


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (3, 5)])
def test_invariant_factors_empty_and_zero_shapes(shape):
    m = Matrix(*shape, ZZ)
    assert invariant_factors(m) == []
    s, _, _ = smith_normal_form(m, with_transforms=False)
    assert (s.nrows, s.ncols) == shape and s.is_zero()


def test_invariant_factors_match_transforms_and_sympy():
    rng = random.Random(29)
    makers = (
        lambda a, b: _random_matrix(rng, ZZ, a, b, -3, 3),
        lambda a, b: _unitless_matrix(rng, a, b),
        lambda a, b: _thin_product(rng, a, b),
    )
    for trial in range(60):
        m = makers[trial % 3](rng.randint(0, 7), rng.randint(0, 7))
        fast = invariant_factors(m)
        s, _, _ = smith_normal_form(m, with_transforms=False)
        assert s == smith_normal_form(m)[0]
        assert fast == _diagonal_factors(s)
        assert fast == _sympy_factors(m)


def test_invariant_factors_match_transforms_on_sparse_boundary_like():
    # mostly +-1 entries, like coarse boundaries, at sizes where the
    # residual left after the unit pivots is small but not empty
    rng = random.Random(31)
    for _ in range(12):
        nrows, ncols = rng.randint(10, 25), rng.randint(10, 40)
        m = Matrix(nrows, ncols, ZZ)
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.15:
                    m.set(i, j, rng.choice((-1, 1, 1, -2, 2, 3)))
        assert invariant_factors(m) == _diagonal_factors(smith_normal_form(m)[0])


_NON_UNITS = (-6, -4, -3, -2, 2, 3, 4, 6)


def _wide_residual(rng, ncols):
    """2 x ncols with no entry +-1: the second row is 6w + 2 * the first,
    so every 2 x 2 minor is divisible by 6."""
    top = [rng.choice(_NON_UNITS) for _ in range(ncols)]
    return Matrix.from_dense([top, [6 * rng.choice(_NON_UNITS) + 2 * a for a in top]], ZZ)


def _tall_residual(rng, nrows, ncols):
    """nrows x ncols, sparse, with no entry +-1; its last two rows are even,
    so at least two invariant factors are."""
    rows = [[rng.choice(_NON_UNITS) if rng.random() < 0.3 else 0 for _ in range(ncols)]
            for _ in range(nrows - 2)]
    rows += [[4 * rng.choice(_NON_UNITS) * (rng.random() < 0.3) + 2 * a for a in rows[i]]
             for i in rng.sample(range(nrows - 2), 2)]
    return Matrix.from_dense(rows, ZZ)


@pytest.mark.parametrize("shape", [(2, 300), (16, 105)])
def test_smith_form_on_wide_residuals_without_units(shape):
    # the shapes the Euclid loop sees after the unit pivots: a 2 x 6,115
    # dense residual (s3, XH over Z, cap 6) and a 16 x 105 one (z4, cap 6)
    rng = random.Random(f"residual {shape}")
    for _ in range(3):
        m = _wide_residual(rng, shape[1]) if shape[0] == 2 else _tall_residual(rng, *shape)
        assert not any(v in (1, -1) for _, _, v in m.entries())
        factors = invariant_factors(m)
        assert factors == _sympy_factors(m)
        assert factors[-1] > 1
        s, u, v = smith_normal_form(m)
        assert _diagonal_factors(s) == factors
        assert (u @ m @ v) == s


def test_smith_rejects_field_matrices():
    with pytest.raises(ValueError):
        smith_normal_form(Matrix.identity(2, QQ))



def test_homology_triangle_circle():
    # triangle boundary: three vertices, three edges glued in a cycle
    d1 = Matrix.from_dense([[-1, 0, 1], [1, -1, 0], [0, 1, -1]], ZZ)
    h0 = homology_at(Matrix(0, 3, ZZ), d1, degree=0)
    assert (h0.betti, h0.torsion) == (1, ())
    h1 = homology_at(d1, Matrix(3, 0, ZZ), degree=1)
    assert (h1.betti, h1.torsion) == (1, ())


def test_homology_torsion_example():
    # 1 -> Z --2--> Z: H = Z/2
    d_out = Matrix(0, 1, ZZ)
    d_in = Matrix.from_dense([[2]], ZZ)
    h = homology_at(d_out, d_in, degree=0)
    assert h.betti == 0
    assert h.torsion == (2,)


def test_homology_rejects_bad_composition():
    d_out = Matrix.from_dense([[1]], QQ)
    d_in = Matrix.from_dense([[1]], QQ)
    with pytest.raises(ValueError):
        homology_at(d_out, d_in)


# -- compression: a complex reduced in degree order ----------------------------


def _assert_compression_matches_each_boundary(cx):
    """The ranks and torsion that `cx` reads off its compressed boundaries
    equal the per-matrix ones of every boundary (over Z, d[0] gives its
    rank only)."""
    for n, d in enumerate(cx.d):
        assert cx.boundary_rank(n) == rank(d), n
        if n:
            factors = invariant_factors(d) if cx.domain is ZZ else []
            assert cx.homology(n - 1).torsion == tuple(f for f in factors if f > 1), n


def _recorded_drops(monkeypatch):
    """The row sets deleted before each reduction, in call order."""
    drops = []

    class Recorded(linalg_module._Compressed):
        __slots__ = ()

        def __init__(self, boundary, deleted):
            drops.append(set(deleted))
            super().__init__(boundary, deleted)

    monkeypatch.setattr(linalg_module, "_Compressed", Recorded)
    return drops


@pytest.mark.parametrize("domain", [ZZ, QQ], ids=["Z", "Q"])
def test_compressed_chain_complexes_match_each_boundary(domain):
    rng = random.Random(23)
    for _ in range(6):
        _assert_compression_matches_each_boundary(CoarseChainComplex(random_space(rng), 3, domain))
    _assert_compression_matches_each_boundary(
        CoarseChainComplex(g_can_min(symmetric_group(3)), 4, domain))


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["Q", "F7"])
def test_compressed_nerve_complexes_match_each_boundary(domain):
    rng = random.Random(5)
    spaces = [g_can_min(symmetric_group(3))] + [random_space(rng) for _ in range(3)]
    for space in spaces:
        mixed = nerve_complex(space, 3, domain)
        _assert_compression_matches_each_boundary(mixed.b_complex)
        _assert_compression_matches_each_boundary(TotComplex(mixed.b_complex, mixed.big_b))


def test_boundary_rank_reduces_each_boundary_once_in_degree_order(monkeypatch):
    cx = CoarseChainComplex(g_can_min(symmetric_group(3)), 3, QQ)
    drops = _recorded_drops(monkeypatch)
    top = cx.boundary_rank(3)
    assert len(drops) == 4
    assert [cx.homology(n).betti for n in range(3)] == [1, 0, 0]
    assert len(drops) == 4
    monkeypatch.undo()
    assert top == rank(cx.d[3]) > 0
    with pytest.raises(ValueError, match="no boundary d\\[4\\]"):
        cx.boundary_rank(4)


def test_compressed_axiom_cone_matches_each_boundary():
    f = random_equivalence(random.Random(3))
    cx, cy = (CoarseChainComplex(x, 3, ZZ) for x in (f.source, f.target))
    push = [pushforward_matrix(cx, cy, f, n) for n in range(4)]
    cone = _iterated_cone([cy.d, cx.d], [push], 3, ZZ)
    _assert_compression_matches_each_boundary(cone)
    assert [(h.betti, h.torsion) for h in map(cone.homology, range(3))] == [(0, ())] * 3


def test_compression_keeps_residual_pivot_rows(monkeypatch):
    # no unit pivot in d[1], so no row of d[2] goes: dropping the row of
    # the residual's pivot (the 2) would leave [[-2]] and a false Z/2
    drops = _recorded_drops(monkeypatch)
    cx = Complex([Matrix(0, 1, ZZ), Matrix.from_dense([[2, 3]], ZZ),
                  Matrix.from_dense([[3], [-2]], ZZ)])
    assert cx.homology(1) == linalg_module.HomologyResult(degree=1, betti=0, torsion=())
    assert drops == [set(), set(), set()]
    assert [cx.boundary_rank(n) for n in range(3)] == [0, 1, 1]
    monkeypatch.undo()
    _assert_compression_matches_each_boundary(cx)


@pytest.mark.parametrize("domain", [ZZ, QQ], ids=["Z", "Q"])
def test_compression_of_a_pair_with_a_unit_pivot(monkeypatch, domain):
    # ker d_out is spanned by (1, -1, 0) and (0, 2, -1); d_in hits twice the
    # first and once the second, so H = Z/2 over Z and 0 over Q
    d_out = Matrix.from_dense([[1, 1, 2]], domain)
    d_in = Matrix.from_dense([[2, 0], [-2, 2], [0, -1]], domain)
    drops = _recorded_drops(monkeypatch)
    h = homology_at(d_out, d_in)
    assert len(drops) == 2 and len(drops[1]) == 1 and drops[1] <= {0, 1}
    assert (h.betti, h.torsion) == ((0, (2,)) if domain is ZZ else (0, ()))
    monkeypatch.undo()
    _assert_compression_matches_each_boundary(Complex([d_out, d_in]))


def test_domain_coercions():
    assert QQ.coerce(3) == Fraction(3)
    assert ZZ.coerce(Fraction(4, 2)) == 2
    with pytest.raises(TypeError):
        ZZ.coerce(Fraction(1, 2))
    f5 = GF(5)
    assert f5.coerce(-1) == 4
    assert f5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    assert f5.coerce(Fraction(1, 3)) == 2  # 1/3 = 2 mod 5
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**31 + 11)
    assert GF(5) is GF(5)


def test_matrix_block_and_product():
    a = Matrix.from_dense([[1, 2], [3, 4]], QQ)
    b = Matrix.from_dense([[5], [6]], QQ)
    blk = Matrix.block([[a, b], [None, Matrix.identity(1, QQ)]], QQ)
    assert blk.to_dense() == [
        [1, 2, 5],
        [3, 4, 6],
        [0, 0, 1],
    ]
    prod = a @ b
    assert prod.to_dense() == [[17], [39]]
    assert (a - a).is_zero()
    assert a.transpose().to_dense() == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        Matrix.block([[None]], QQ)


def test_matrix_block_rejects_a_domain_mismatch():
    half = Matrix.from_dense([[Fraction(1, 2)]], QQ)
    with pytest.raises(ValueError, match="domain"):
        Matrix.block([[half]], GF(5))
    with pytest.raises(ValueError, match="domain"):
        Matrix.block([[Matrix.identity(1, GF(5)), half]], GF(5))
    assert Matrix.block([[half]], QQ).get(0, 0) == Fraction(1, 2)


def test_matrix_entry_rules():
    m = Matrix(2, 2, QQ)
    m.set(0, 0, 1)
    m.set(0, 0, 0)
    assert m.is_zero()
    m.add_at(1, 1, Fraction(1, 2))
    m.add_at(1, 1, Fraction(1, 2))
    assert m.get(1, 1) == 1
    with pytest.raises(IndexError):
        m.set(2, 0, 1)


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(5)], ids=["Q", "Z", "F5"])
def test_from_columns_rejects_inexact_values_and_rows_out_of_range(domain):
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            Matrix.from_columns([{0: 1}, {1: bad}], 2, domain)
    for row in (2, -1):
        with pytest.raises(IndexError):
            Matrix.from_columns([{0: 1}, {row: 1, 0: 1}], 2, domain)
    # a zero out of range is still out of range, as with `set`
    with pytest.raises(IndexError):
        Matrix.from_columns([{5: 0}], 2, domain)


def test_from_columns_finishes_each_column():
    cols = [{0: 7, 1: Fraction(4, 2), 2: 5}, {}, {1: 0, 2: -1}, {0: True}]
    got = Matrix.from_columns(cols, 3, GF(5))
    assert got._cols == {0: {0: 2, 1: 2}, 2: {2: 4}, 3: {0: 1}}
    got = Matrix.from_columns(cols, 3, QQ)
    assert got._cols == {0: {0: 7, 1: 2, 2: 5}, 2: {2: -1}, 3: {0: 1}}
    assert type(got.get(1, 0)) is int and type(got.get(0, 3)) is int
    assert Matrix.from_columns([{0: Fraction(1, 2)}], 1, GF(5)).get(0, 0) == 3
    with pytest.raises(TypeError):
        Matrix.from_columns([{0: Fraction(1, 2)}], 1, ZZ)


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(5)], ids=["Q", "Z", "F5"])
def test_from_columns_reads_a_generator_like_a_list(domain):
    cols = [{0: 7, 2: -1}, {}, {1: 3}, {}, {}]  # trailing empty columns still count
    got = Matrix.from_columns((col for col in cols), 3, domain)
    assert got == Matrix.from_columns(cols, 3, domain)
    assert (got.nrows, got.ncols) == (3, 5)
    empty = Matrix.from_columns((col for col in []), 4, domain)
    assert (empty.nrows, empty.ncols) == (4, 0)
    # a bad row or an inexact value in a later column still raises
    with pytest.raises(IndexError):
        Matrix.from_columns((col for col in [{0: 1}, {}, {3: 1}]), 3, domain)
    with pytest.raises(TypeError):
        Matrix.from_columns((col for col in [{0: 1}, {}, {1: 0.5}]), 3, domain)


def _q_true_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(2, 5))


def _q_integral_fraction(rng):
    return Fraction(rng.randint(-4, 4))


def _small_int(rng):
    return rng.randint(-9, 9)


# (domain, entry drawer); each Q drawer stores a different input form
KERNEL_CASES = [
    (QQ, _q_true_fraction),
    (QQ, _q_integral_fraction),
    (QQ, _small_int),
    (ZZ, _small_int),
    (GF(2), _small_int),
    (GF(3), _small_int),
    (GF(97), _small_int),
]


def _sparse_random(rng, domain, draw, nrows, ncols):
    m = Matrix(nrows, ncols, domain)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.4:
                m.set(i, j, draw(rng))
    return m


def _dense(m):
    return [[Fraction(v) for v in row] for row in m.to_dense()]


def _reduced(rows, domain):
    """A dense Fraction matrix read in `domain` (only integral entries over F_p)."""
    if domain.char:
        return [[int(v) % domain.char for v in row] for row in rows]
    return rows


def _assert_canonical(values, domain):
    for v in values:
        assert v != 0, "zero stored"
        if domain is QQ:
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v
        else:
            assert type(v) is int, v
            if domain.char:
                assert 0 <= v < domain.char


@pytest.mark.parametrize("domain, draw", KERNEL_CASES,
                         ids=["Q-fractions", "Q-integral-fractions", "Q-ints", "Z", "F2", "F3", "F97"])
def test_matrix_kernel_matches_dense_fractions(domain, draw):
    rng = random.Random(f"{domain.name} {draw.__name__}")
    for _ in range(25):
        n, k, m_ = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _sparse_random(rng, domain, draw, n, k)
        a2 = _sparse_random(rng, domain, draw, n, k)
        b = _sparse_random(rng, domain, draw, k, m_)
        c = draw(rng) if rng.random() < 0.8 else 0
        vec = {j: draw(rng) for j in range(k) if rng.random() < 0.5}
        da, da2, db = _dense(a), _dense(a2), _dense(b)

        prod = a @ b
        assert prod.to_dense() == _reduced(
            [[sum((da[i][t] * db[t][j] for t in range(k)), Fraction(0)) for j in range(m_)]
             for i in range(n)], domain)
        total = a + a2
        assert total.to_dense() == _reduced(
            [[da[i][j] + da2[i][j] for j in range(k)] for i in range(n)], domain)
        diff = a - a2
        assert diff.to_dense() == _reduced(
            [[da[i][j] - da2[i][j] for j in range(k)] for i in range(n)], domain)
        scaled = a.scale(c)
        assert scaled.to_dense() == _reduced(
            [[Fraction(c) * da[i][j] for j in range(k)] for i in range(n)], domain)
        image = a.mat_vec(vec)
        ref = _reduced([[sum((da[i][t] * Fraction(vec.get(t, 0)) for t in range(k)), Fraction(0))]
                        for i in range(n)], domain)
        assert {i: row[0] for i, row in enumerate(ref) if row[0]} == image

        for out in (prod, total, diff, scaled, a - a, a.scale(0)):
            assert all(out._cols.values()), "empty column stored"
            _assert_canonical([v for col in out._cols.values() for v in col.values()], domain)
        _assert_canonical(image.values(), domain)
        assert (a - a).is_zero() and a.scale(0).is_zero()


def _signed_permutation(rng, domain, k, signs):
    m = Matrix(k, k, domain)
    for j, i in enumerate(rng.sample(range(k), k)):
        m.set(i, j, rng.choice(signs))
    return m


def _one_term_columns(rng, domain, k, m, coefficients):
    b = Matrix(k, m, domain)
    for j in range(m):
        if k and rng.random() < 0.8:
            b.set(rng.randrange(k), j, rng.choice(coefficients))
    return b


def _some_columns(m, rng):
    return Matrix.from_columns([m.column(j) if rng.random() < 0.5 else {}
                                for j in range(m.ncols)], m.nrows, m.domain)


def _assert_stored_canonical(out, domain):
    assert all(out._cols.values()), "empty column stored"
    _assert_canonical([v for col in out._cols.values() for v in col.values()], domain)


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(2), GF(3), GF(97)],
                         ids=["Q", "Z", "F2", "F3", "F97"])
def test_matrix_one_term_columns_match_dense_fractions(domain):
    # the columns a product or sum copies or negates instead of accumulating:
    # one-term right-factor columns (unit, -1, 2 and a half that makes
    # 2 * 1/2 integral), columns only one summand holds, and scale(+-1)
    rng = random.Random(f"one-term {domain.name}")
    coefficients = [1, -1, 2] + ([Fraction(1, 2)] if domain is QQ or domain.char > 2 else [])
    values = [1, -1, 2, -4] + ([Fraction(2, 3)] if domain is QQ else [])
    for _ in range(25):
        n, k, m_ = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _sparse_random(rng, domain, lambda r: r.choice(values), n, k)
        da = _dense(a)
        for b in (_signed_permutation(rng, domain, k, [1]),
                  _signed_permutation(rng, domain, k, [1, -1]),
                  _one_term_columns(rng, domain, k, m_, coefficients)):
            db = _dense(b)
            prod = a @ b
            assert prod.to_dense() == _reduced(
                [[sum((da[i][t] * db[t][j] for t in range(k)), Fraction(0))
                  for j in range(b.ncols)] for i in range(n)], domain)
            _assert_stored_canonical(prod, domain)
        left, right = _some_columns(a, rng), _some_columns(
            _sparse_random(rng, domain, lambda r: r.choice(values), n, k), rng)
        dl, dr = _dense(left), _dense(right)
        for out, x, y, sign in ((left + right, dl, dr, 1), (left - right, dl, dr, -1),
                                (right - left, dr, dl, -1)):
            ref = [[x[i][j] + sign * y[i][j] for j in range(k)] for i in range(n)]
            assert out.to_dense() == _reduced(ref, domain)
            _assert_stored_canonical(out, domain)
        for c in (1, -1):
            out = a.scale(c)
            assert out.to_dense() == _reduced([[c * v for v in row] for row in da], domain)
            _assert_stored_canonical(out, domain)
    if domain is QQ:
        prod = (Matrix.from_dense([[2], [Fraction(2, 3)]], QQ)
                @ Matrix.from_dense([[Fraction(1, 2)]], QQ))
        assert prod._cols == {0: {0: 1, 1: Fraction(1, 3)}} and type(prod.get(0, 0)) is int


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(3)], ids=["Q", "Z", "F3"])
def test_products_and_sums_share_no_column_with_an_operand(domain):
    a = Matrix.from_dense([[1, 2], [0, -1]], domain)
    p = Matrix.from_dense([[0, 1], [1, 0]], domain)
    z = Matrix(2, 2, domain)
    before = a.to_dense()
    for out in (a @ p, a @ Matrix.identity(2, domain), a + z, z + a, a - z, a.scale(1),
                a.scale(-1)):
        for i in range(2):
            for j in range(2):
                out.set(i, j, 5)
        assert a.to_dense() == before


def test_finished_is_canonical():
    raw = {0: Fraction(4, 2), 1: Fraction(1, 2), 2: Fraction(0), 3: 0, 4: -3, 5: Fraction(-6, 3)}
    got = finished(raw, QQ)
    assert got == {0: 2, 1: Fraction(1, 2), 4: -3, 5: -2}
    _assert_canonical(got.values(), QQ)
    got = finished({0: 4, 1: 0, 2: -4}, ZZ)
    assert got == {0: 4, 2: -4}
    _assert_canonical(got.values(), ZZ)
    for p in (2, 3, 97):
        values = range(-2 * p, 2 * p + 1)
        got = finished(dict(enumerate(values)), GF(p))
        assert got == {i: v % p for i, v in enumerate(values) if v % p}
        _assert_canonical(got.values(), GF(p))
    assert finished({}, QQ) == {}


@pytest.mark.parametrize("domain", [QQ, GF(3)], ids=["Q", "F3"])
def test_sums_outside_linalg_are_canonical(domain):
    # coefficients 2 (and 2 * 2 = 4 over F_3) and halves whose sums are
    # integral over Q, so every finishing step has work to do
    half = Fraction(1, 2) if domain is QQ else 2
    x = GBornCoarseSpace(["a0", "a1", "b0", "b1"], [(0, 2)], group=cyclic_group(2),
                         action=[[0, 1, 2, 3], [1, 0, 3, 2]])
    y = g_can_min(cyclic_group(2))
    f = SpaceMap(x, y, [0, 1, 0, 1])

    alg = endomorphism_algebra(generator(x, domain))
    everything = dict.fromkeys(range(alg.dimension), 2)
    for u, v in [(everything, everything), ({i: half for i in range(alg.dimension)}, everything)]:
        _assert_canonical(alg.multiply(u, v).values(), domain)

    cx = TraceContext(x, domain, max_degree=2)
    cy = TraceContext(y, domain, max_degree=2)
    for n in range(3):
        for k in range(cx.mixed.dims[n]):
            for vec in ({k: 3}, {k: 2, 0: half}):
                _assert_canonical(cx.phi(n, vec).coefficients.values(), domain)
        push = nerve_pushforward_matrix(cx.mixed, cy.mixed, f, n)
        assert all(push._cols.values()), "empty column stored"
        _assert_canonical([v for col in push._cols.values() for v in col.values()], domain)

    degenerate = {(0, 0, 2): 2, (0, 2, 0): 2, (2, 0, 0): half, (0, 0, 0): 1, (2, 2, 0): half}
    chain = boundary_of_chain(ControlledChain(x, 2, degenerate, domain))
    assert not chain.is_zero()
    _assert_canonical(chain.coefficients.values(), domain)


def test_only_linalg_sums_exact_coefficients():
    # dom.add / dom.mul / dom.neg / dom.div per entry is the arithmetic that
    # plain + and * with one `finished` replace, in every module, the
    # bar-complex oracle (whose domain is `f` or `field`) included
    offenders = []
    for path in sorted(Path(linalg_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("add", "mul", "neg", "div")
                    and getattr(node.value, "id", getattr(node.value, "attr", None))
                    in ("dom", "domain", "f", "field")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(2), GF(7)], ids=["Q", "Z", "F2", "F7"])
def test_a_domain_only_coerces(domain):
    assert [name for name in ("add", "mul", "neg", "div") if hasattr(domain, name)] == []


def test_rationals_are_canonical():
    half = Fraction(1, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    for value in (QQ.coerce(Fraction(4, 2)), QQ.coerce(True)):
        assert type(value) is int
    assert QQ.coerce(half) == half and type(QQ.coerce(half)) is Fraction


def test_module_docstring_examples():
    import doctest

    import coarsehom.linalg

    result = doctest.testmod(coarsehom.linalg)
    assert result.attempted > 0 and result.failed == 0
