"""Independent Hochschild/cyclic homology of a group algebra from its table.

This is a deliberately separate route: everything is indexed directly by
group-element tuples, with no shared code beyond exact linear algebra, so
the results can cross-check the nerve pipeline.  Keep it that way; the
import lint in the tests enforces it.
"""

from functools import lru_cache
from itertools import product

from .linalg import Complex, Matrix


def _validated(table):
    """Return the table as nested tuples with the unit index, or raise."""
    t = tuple(tuple(row) for row in table)
    g = len(t)
    if g == 0 or any(len(row) != g for row in t):
        raise ValueError("multiplication table must be square and non-empty")
    full = frozenset(range(g))
    for row in t:
        if frozenset(row) != full:
            raise ValueError("multiplication table rows must be permutations")
    for j in range(g):
        if frozenset(t[i][j] for i in range(g)) != full:
            raise ValueError("multiplication table columns must be permutations")
    unit = None
    for e in range(g):
        if all(t[e][j] == j and t[j][e] == j for j in range(g)):
            unit = e
            break
    if unit is None:
        raise ValueError("multiplication table has no unit")
    for a in range(g):
        for b in range(g):
            for c in range(g):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise ValueError("multiplication table is not associative")
    return t, unit


class _BarComplex:
    """b, B, and the mixed total complex of k[G] on tensor-tuple bases."""

    def __init__(self, table, max_degree, field):
        self.table, self.unit = _validated(table)
        self.g = len(self.table)
        self.max_degree = max_degree
        self.field = field
        self.dims = [self.g ** (n + 1) for n in range(max_degree + 1)]
        self._b = Complex(
            [Matrix(0, self.dims[0], field)]
            + [self._boundary(n) for n in range(1, max_degree + 1)],
            "bar complex",
        )
        self._big_b = [self._connes(n) for n in range(max_degree)]
        self._tot = None

    def _index(self, tup):
        idx = 0
        for i in tup:
            idx = idx * self.g + i
        return idx

    def _boundary(self, n):
        f = self.field
        m = Matrix(self.dims[n - 1], self.dims[n], f)
        for col, tup in enumerate(product(range(self.g), repeat=n + 1)):
            sign = f.one
            for i in range(n):
                merged = tup[:i] + (self.table[tup[i]][tup[i + 1]],) + tup[i + 2:]
                m.add_at(self._index(merged), col, sign)
                sign = -sign
            wrapped = (self.table[tup[n]][tup[0]],) + tup[1:n]
            m.add_at(self._index(wrapped), col, sign)
        return m

    def _cyclic(self, n):
        f = self.field
        sign = f.one if n % 2 == 0 else -1
        m = Matrix(self.dims[n], self.dims[n], f)
        for col, tup in enumerate(product(range(self.g), repeat=n + 1)):
            m.add_at(self._index((tup[-1],) + tup[:-1]), col, sign)
        return m

    def _connes(self, n):
        f = self.field
        t = self._cyclic(n)
        norm = Matrix.identity(self.dims[n], f)
        power = Matrix.identity(self.dims[n], f)
        for _ in range(n):
            power = power @ t
            norm = norm + power
        front = Matrix(self.dims[n + 1], self.dims[n], f)
        for col, tup in enumerate(product(range(self.g), repeat=n + 1)):
            front.add_at(self._index((self.unit,) + tup), col, f.one)
        t_up = self._cyclic(n + 1)
        one_minus = Matrix.identity(self.dims[n + 1], f) - t_up
        return one_minus @ front @ norm

    def _total(self):
        if self._tot is not None:
            return self._tot
        f = self.field
        tot_dims = []
        for n in range(self.max_degree + 1):
            tot_dims.append(sum(self.dims[n - 2 * j] for j in range((n // 2) + 1)))
        out = [Matrix(0, tot_dims[0], f)]
        for n in range(1, self.max_degree + 1):
            m = Matrix(tot_dims[n - 1], tot_dims[n], f)
            col_off = 0
            for j in range((n // 2) + 1):
                deg = n - 2 * j
                row_off_b = sum(self.dims[n - 1 - 2 * i] for i in range(j))
                if deg >= 1:
                    b = self._b.d[deg]
                    for cidx in range(b.ncols):
                        for r, v in b.column(cidx).items():
                            m.add_at(row_off_b + r, col_off + cidx, v)
                if j >= 1:
                    big = self._big_b[deg]
                    row_off_B = sum(self.dims[n - 1 - 2 * i] for i in range(j - 1))
                    for cidx in range(big.ncols):
                        for r, v in big.column(cidx).items():
                            m.add_at(row_off_B + r, col_off + cidx, v)
                col_off += self.dims[deg]
            out.append(m)
        self._tot = Complex(out, "bar total complex")
        return self._tot

    def hh(self, n):
        if not (0 <= n < self.max_degree):
            raise ValueError(f"hh({n}) needs max_degree > {n}")
        return self._b.homology(n).betti

    def hc(self, n):
        if not (0 <= n < self.max_degree):
            raise ValueError(f"hc({n}) needs max_degree > {n}")
        return self._total().homology(n).betti


@lru_cache(maxsize=None)
def _cached_complex(table, max_degree, field):
    return _BarComplex(table, max_degree, field)


def bar_complex(table, max_degree, field):
    """The cached bar-type complex of the group algebra of `table`."""
    return _cached_complex(tuple(tuple(row) for row in table), max_degree, field)


def bar_hh(table, n, field):
    """Hochschild homology dimension of k[G] in degree n, straight from the table."""
    return bar_complex(table, n + 1, field).hh(n)


def bar_hc(table, n, field):
    """Cyclic homology dimension of k[G] in degree n, straight from the table."""
    return bar_complex(table, n + 1, field).hc(n)
