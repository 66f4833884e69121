import ast
import inspect

import pytest

import coarsehom.bar_oracle as bar_oracle
from coarsehom.bar_oracle import bar_complex, bar_hh, bar_hc
from coarsehom.cyclic import TotComplex, additive_cyclic_nerve, to_mixed
from coarsehom.groups import cyclic_group, symmetric_group
from coarsehom.linalg import GF, QQ
from coarsehom.spaces import g_can_min
from coarsehom.trace import TraceContext


def test_oracle_imports_only_linalg_and_stdlib():
    tree = ast.parse(inspect.getsource(bar_oracle))
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mods.add(node.module or "")
    assert mods <= {"functools", "itertools", "linalg", "coarsehom.linalg"}, mods


def test_table_validation():
    with pytest.raises(ValueError, match="square"):
        bar_complex([[0, 1]], 1, QQ)
    with pytest.raises(ValueError, match="permutation"):
        bar_complex([[0, 0], [1, 1]], 1, QQ)
    # Latin square without a unit
    with pytest.raises(ValueError, match="unit"):
        bar_complex([[1, 0, 2], [0, 2, 1], [2, 1, 0]], 1, QQ)
    # Latin square with a unit that is not associative: row/col 0 is the unit,
    # the rest is a 4x4 latin square on {1..4} chosen to break associativity
    t = [
        [0, 1, 2, 3, 4],
        [1, 2, 0, 4, 3],
        [2, 4, 3, 0, 1],
        [3, 0, 4, 1, 2],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        bar_complex(t, 1, QQ)


def test_ground_field_profile():
    table = [[0]]
    assert [bar_hh(table, n, QQ) for n in range(3)] == [1, 0, 0]
    assert [bar_hc(table, n, QQ) for n in range(3)] == [1, 0, 1]


def test_group_algebras_over_q_are_semisimple():
    z2 = cyclic_group(2).table
    z3 = cyclic_group(3).table
    s3 = symmetric_group(3).table
    assert [bar_hh(z2, n, QQ) for n in range(3)] == [2, 0, 0]
    assert [bar_hc(z2, n, QQ) for n in range(3)] == [2, 0, 2]
    assert [bar_hh(z3, n, QQ) for n in range(3)] == [3, 0, 0]
    assert bar_hc(z3, 2, QQ) == 3
    assert bar_hh(s3, 0, QQ) == 3
    assert bar_hh(s3, 1, QQ) == 0


def test_modular_case_is_not_semisimple():
    z2 = cyclic_group(2).table
    assert bar_hh(z2, 0, GF(2)) == 2
    assert bar_hh(z2, 1, GF(2)) == 2
    assert bar_hh(z2, 0, GF(5)) == 2
    assert bar_hh(z2, 1, GF(5)) == 0


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_agrees_with_the_nerve_route(k):
    group = cyclic_group(k)
    ctx = TraceContext(g_can_min(group), QQ, max_degree=3)
    mixed = to_mixed(ctx.nerve)
    tot = TotComplex(mixed.b_complex, mixed.big_b)
    for n in range(3):
        assert mixed.b_complex.homology(n).betti == bar_hh(group.table, n, QQ)
        assert tot.homology(n).betti == bar_hc(group.table, n, QQ)


def test_degree_guard():
    with pytest.raises(ValueError, match="max_degree"):
        bar_complex([[0]], 2, QQ).hh(2)
