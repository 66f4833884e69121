"""Exact sparse linear algebra over Q, prime fields F_p, and Z.

Everything here is integer-exact.  A rational is kept in canonical form:
a plain int when it is integral and a `fractions.Fraction` only when it is
a true fraction.  Prime-field elements are ints in range(p), and integer
matrices hold plain ints.  Floating point never appears.

The three entry points used by the homology code are

    >>> m = Matrix.from_dense([[1, 2], [2, 4]], QQ)
    >>> rank(m)
    1
    >>> kernel_basis(m)
    [{1: 1, 0: -2}]
    >>> s, _, _ = smith_normal_form(Matrix.from_dense([[2, 0], [0, 3]], ZZ))
    >>> [s.get(i, i) for i in range(2)]
    [1, 6]

Rank and Smith form share one indexed sparse elimination engine,
`_unit_eliminate`.  It works on integer rows (Q rows with their
denominators cleared), keeps a column-to-rows index, picks pivots in
Markowitz order (shortest column, then shortest row) and deletes each
pivot's row and column.  Over F_p any nonzero entry is a pivot, so the
rank is the pivot count.  Over Z and Q only +-1 entries are, and a unit
pivot splits off exactly: the Smith form of the matrix is 1 + that of the
Schur complement.  What is left is a small residual, on plain row dicts
with no index: over Q fraction-free elimination in column order
(`_echelon`) finishes the rank, and over Z the Euclid loop
(`_euclid_smith`) the Smith form (reduce-then-SNF).  One helper,
`_reduce`, runs the engine and the residual step for `rank` and
`smith_normal_form` without transforms.  The transform-tracking Smith
form, the tests' oracle, runs the Euclid loop on the whole matrix.

This module is the one place that sums exact coefficients and lays out
blocks.  A sparse sum anywhere in the package (a `Matrix` column, a chain,
a trace, a hom-space constraint) is accumulated with plain + and *, which
act alike on int and Fraction, and handed to `finished` once: reduce mod p,
make integral rationals ints, and drop zeros.  `Matrix` products and sums
cost per nonzero term: each output column starts from its first term, and
a column with one term is a stored column times a coefficient, canonical
as it stands when that coefficient is one, or +-1 over Z and Q, so it is
copied and not finished.  A domain (QQ, ZZ, GF(p)) has no arithmetic of
its own: it coerces, and names its zero, one, characteristic and whether
it is a field.  Block matrices are laid out by `Matrix.block`, never by
hand-written offsets, and the block grid of a total complex (of a mixed
complex, or of an iterated mapping cone) by `total_boundaries` alone.

`kernel_basis` uses the same column-order elimination, `_echelon`, with
content normalization so entries stay small; its reduced echelon form is
unique, which keeps every downstream basis reproducible bit for bit.

`Complex` is the one chain-complex value.  It checks d^2 = 0 once, when
it is built (the package's only such check); the one complex built
without it is `cyclic.TotComplex`, whose blocks of d^2 are b^2, bB + Bb
and B^2, all checked before.  Its `homology` reduces each boundary at
most once, in degree order, compressed (the compression step of
persistent homology: Chen and Kerber 2011; Bauer, Kerber and Reininghaus
2014).  Before d[k+1] is reduced, the rows indexed by the engine's unit
pivot columns Q of d[k] are deleted from it.  Those columns are
independent, so ker d[k] projects injectively away from Q, and im d[k+1]
lies in ker d[k]: the rank of d[k+1] is kept.  Over Z the pivot block is
unimodular, so the projected kernel stays saturated and the invariant
factors are kept too; the residual's pivots are never in Q.  Deleting rows
keeps ker d[k+1], so the argument repeats in every degree.  Each
compressed boundary, a `_Compressed` matrix, goes to `rank` or
`invariant_factors` like any other matrix, and its reduction records Q
on it.  A failed identity raises `InvariantError`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def finished(vec, domain):
    """A sparse vector {key: value} summed with plain + and *, in canonical
    form over `domain`: reduced mod p over F_p, integral rationals made ints
    over Q, zeros dropped.  Over F_p the result is a new dict, built in one
    pass; otherwise `vec` is finished in place and returned, or copied when
    it holds a zero.

        >>> finished({0: 4, 1: 3, 2: 1}, GF(3))
        {0: 1, 2: 1}
        >>> finished({0: Fraction(4, 2), 1: Fraction(1, 2), 2: Fraction(0)}, QQ)
        {0: 2, 1: Fraction(1, 2)}
    """
    p = domain.char
    if p:
        out = {}
        for i, v in vec.items():
            v %= p
            if v:
                out[i] = v
        return out
    if domain is QQ:
        for i, v in vec.items():
            if type(v) is Fraction and v.denominator == 1:
                vec[i] = v.numerator
    if 0 in vec.values():
        vec = {i: v for i, v in vec.items() if v}
    return vec


def _canonical_q(v):
    """An int or Fraction in canonical form: an int when it is integral."""
    return v.numerator if v.denominator == 1 else v


class _Rationals:
    """Q, with each rational an int when integral and a Fraction otherwise."""

    is_field = True
    char = 0
    name = "Q"

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return _canonical_q(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def __repr__(self):
        return "QQ"


class _Integers:
    is_field = False
    char = 0
    name = "Z"

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise TypeError(f"cannot coerce {x!r} into Z")

    def __repr__(self):
        return "ZZ"


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class _PrimeField:
    is_field = True

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= 2**31:
            raise ValueError("primes of 2**31 and above are not supported")
        self.char = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.char
        if isinstance(x, Fraction):
            den = x.denominator % self.char
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.char}")
            return x.numerator * pow(den, self.char - 2, self.char) % self.char
        raise TypeError(f"cannot coerce {x!r} into F_{self.char}")

    def __repr__(self):
        return f"GF({self.char})"


QQ = _Rationals()
ZZ = _Integers()

_gf_cache = {}


def GF(p):
    """The prime field with p elements (instances are cached)."""
    if p not in _gf_cache:
        _gf_cache[p] = _PrimeField(p)
    return _gf_cache[p]


def _units(domain):
    """The coefficients c for which c * v is canonical for every canonical
    v != 0, so a column times c needs no `finished`: one, and over Z and Q
    also -1 (an int stays an int, a true fraction a true fraction)."""
    return (domain.one,) if domain.char else (1, -1)


class Matrix:
    """Sparse matrix over one of the domains above.

    Entries are stored column-major with no explicit zeros; a matrix with
    zero rows or columns is legal and behaves like the empty map.
    """

    __slots__ = ("nrows", "ncols", "domain", "_cols")

    def __init__(self, nrows, ncols, domain):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        self.nrows = nrows
        self.ncols = ncols
        self.domain = domain
        self._cols = {}

    @classmethod
    def identity(cls, n, domain):
        m = cls(n, n, domain)
        for i in range(n):
            m._cols[i] = {i: domain.one}
        return m

    @classmethod
    def from_dense(cls, rows, domain, ncols=None):
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols, domain)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    @classmethod
    def from_columns(cls, columns, nrows, domain):
        """Build from an iterable of sparse columns ({row: value}); the
        matrix has as many columns as it yields, so a generator is read
        once and no list of raw columns is held.

        Each column is finished in one pass, with no per-entry `set`: a row
        outside range(nrows) raises IndexError, an int is reduced mod p over
        F_p, any other value goes through `domain.coerce` (so an inexact one
        raises TypeError), and zeros are dropped.
        """
        m = cls(nrows, 0, domain)
        p = domain.char
        coerce = domain.coerce
        cols = m._cols
        j = -1
        for j, col in enumerate(columns):
            out = {}
            for i, v in col.items():
                if not 0 <= i < nrows:
                    raise IndexError(f"entry ({i}, {j}) out of bounds")
                if type(v) is not int:
                    v = coerce(v)
                elif p:
                    v %= p
                if v:
                    out[i] = v
            if out:
                cols[j] = out
        m.ncols = j + 1
        return m

    @classmethod
    def block(cls, grid, domain):
        """Assemble a block matrix; None entries are zero blocks.

        Every block row must contain at least one real block, and likewise
        every block column, so that all sizes are determined.
        """
        heights = [None] * len(grid)
        nbc = max(len(r) for r in grid) if grid else 0
        widths = [None] * nbc
        for bi, brow in enumerate(grid):
            for bj, blk in enumerate(brow):
                if blk is None:
                    continue
                if blk.domain is not domain:
                    raise ValueError("domain mismatch in block matrix")
                if heights[bi] is None:
                    heights[bi] = blk.nrows
                elif heights[bi] != blk.nrows:
                    raise ValueError("inconsistent block heights")
                if widths[bj] is None:
                    widths[bj] = blk.ncols
                elif widths[bj] != blk.ncols:
                    raise ValueError("inconsistent block widths")
        if any(h is None for h in heights) or any(w is None for w in widths):
            raise ValueError("block grid leaves a size undetermined")
        row_off = [0]
        for h in heights:
            row_off.append(row_off[-1] + h)
        col_off = [0]
        for w in widths:
            col_off.append(col_off[-1] + w)
        out = cls(row_off[-1], col_off[-1], domain)
        for bi, brow in enumerate(grid):
            for bj, blk in enumerate(brow):
                if blk is None:
                    continue
                r0, c0 = row_off[bi], col_off[bj]
                for j, col in blk._cols.items():
                    dst = out._cols.setdefault(c0 + j, {})
                    for i, v in col.items():
                        dst[r0 + i] = v
        return out

    def get(self, i, j):
        return self._cols.get(j, {}).get(i, self.domain.zero)

    def set(self, i, j, value):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) out of bounds")
        v = self.domain.coerce(value)
        col = self._cols.setdefault(j, {})
        if v == self.domain.zero:
            col.pop(i, None)
            if not col:
                del self._cols[j]
        else:
            col[i] = v

    def add_at(self, i, j, value):
        self.set(i, j, self.get(i, j) + value)

    def column(self, j):
        """The j-th column as {row: value} (a fresh dict)."""
        return dict(self._cols.get(j, {}))

    def entries(self):
        for j in sorted(self._cols):
            col = self._cols[j]
            for i in sorted(col):
                yield i, j, col[i]

    @property
    def nnz(self):
        return sum(len(c) for c in self._cols.values())

    def is_zero(self):
        return not self._cols

    def transpose(self):
        out = Matrix(self.ncols, self.nrows, self.domain)
        for j, col in self._cols.items():
            for i, v in col.items():
                out._cols.setdefault(i, {})[j] = v
        return out

    def scale(self, c):
        dom = self.domain
        c = dom.coerce(c)
        out = Matrix(self.nrows, self.ncols, dom)
        cols = {j: {i: c * v for i, v in col.items()} for j, col in self._cols.items()}
        if c in _units(dom):
            out._cols = cols
            return out
        for j, col in cols.items():
            col = finished(col, dom)
            if col:
                out._cols[j] = col
        return out

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other, sign = +-1."""
        self._check_same_shape(other)
        dom = self.domain
        out = Matrix(self.nrows, self.ncols, dom)
        cols = out._cols
        acols, bcols = self._cols, other._cols
        for j, acol in acols.items():
            acc = dict(acol)
            bcol = bcols.get(j)
            if bcol is not None:
                for i, v in bcol.items():
                    acc[i] = acc.get(i, 0) + sign * v
                acc = finished(acc, dom)
                if not acc:
                    continue
            cols[j] = acc
        for j, bcol in bcols.items():
            if j not in acols:
                col = {i: sign * v for i, v in bcol.items()}
                cols[j] = col if sign in _units(dom) else finished(col, dom)
        return out

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        if self.domain is not other.domain:
            raise ValueError("domain mismatch in matrix product")
        dom = self.domain
        one = dom.one
        units = _units(dom)
        out = Matrix(self.nrows, other.ncols, dom)
        cols = out._cols
        acols = self._cols
        for j, bcol in other._cols.items():
            acc = None
            for k, bv in bcol.items():
                acol = acols.get(k)
                if acol is None:
                    continue
                if acc is None:
                    acc = dict(acol) if bv == one else {i: av * bv for i, av in acol.items()}
                    continue
                for i, av in acol.items():
                    acc[i] = acc.get(i, 0) + av * bv
            if acc is None:
                continue
            if len(bcol) > 1 or bv not in units:
                acc = finished(acc, dom)
                if not acc:
                    continue
            cols[j] = acc
        return out

    def mat_vec(self, vec):
        """Apply to a sparse column vector {index: value}."""
        column = Matrix(self.ncols, 1, self.domain)
        for k, v in vec.items():
            column.set(k, 0, v)
        return (self @ column).column(0)

    def to_dense(self):
        rows = [[self.domain.zero] * self.ncols for _ in range(self.nrows)]
        for j, col in self._cols.items():
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self.domain is not other.domain:
            return False
        keys = set(self._cols) | set(other._cols)
        for j in keys:
            if self._cols.get(j, {}) != other._cols.get(j, {}):
                return False
        return True

    def __hash__(self):
        raise TypeError("matrices are mutable, not hashable")

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols} over {self.domain.name}, nnz={self.nnz}>"

    def _check_same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        if self.domain is not other.domain:
            raise ValueError("domain mismatch")


def total_boundaries(columns, maps, step, max_degree, domain):
    """Boundaries d[0..max_degree] of the total complex of a double complex
    whose squares anticommute.

    columns[s][k] is the boundary out of degree k of column s, which sits
    at total degree k + step * s; maps[s][k] sends column s + 1 in degree k
    to column s in degree k + step - 1.  Block s of Tot_n is column s in
    degree n - step * s, and d_n sends it to block s of Tot_(n-1) by the
    column's boundary and to block s - 1 by the map.  No sign is added.
    """
    def blocks(n):
        return range(min(n // step, len(columns) - 1) + 1)

    d = [Matrix(0, columns[0][0].ncols, domain)]
    for n in range(1, max_degree + 1):
        grid = [[None] * len(blocks(n)) for _ in blocks(n - 1)]
        for s in blocks(n):
            k = n - step * s
            if k >= 1:
                grid[s][s] = columns[s][k]
            if s >= 1:
                grid[s - 1][s] = maps[s - 1][k]
        d.append(Matrix.block(grid, domain))
    return d


@dataclass(frozen=True)
class HomologyResult:
    """Homology in one degree: a betti number and, over Z, torsion factors."""

    degree: int
    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative betti number")


def _row_dicts(matrix):
    """Rows of `matrix` as {col: value} dicts, one per row (empty rows included)."""
    rows = [dict() for _ in range(matrix.nrows)]
    for j, col in matrix._cols.items():
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _integer_rows(matrix):
    """Rows of `matrix` as integer dicts: denominators cleared, content 1.

    Over F_p the entries are already ints in range(p) and are kept as they are.
    """
    if matrix.domain.char:
        return _row_dicts(matrix)
    rational = matrix.domain is QQ
    out = []
    for row in _row_dicts(matrix):
        if rational and any(type(v) is Fraction for v in row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        g = gcd(*row.values())
        out.append({j: v // g for j, v in row.items()} if g > 1 else row)
    return out


def _normalize_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _echelon(rows, ncols, p, reduce):
    """In-place sparse elimination.  Returns the pivot list [(row, col), ...].

    Over Z (p = 0) the updates are fraction-free with content normalization;
    over F_p everything is reduced mod p.  Columns are consumed left to
    right, so the pivot columns are the standard echelon ones and, with
    reduce=True, the row span ends in reduced echelon form up to row scaling.
    Its inputs are small (hom-space constraints, rank residuals), so a
    column's rows are found by a scan, with no column index.
    """
    pivots = []
    in_pivot = set()
    for col in range(ncols):
        holders = [r for r, row in enumerate(rows) if col in row]
        candidates = [r for r in holders if r not in in_pivot]
        if not candidates:
            continue
        if p:
            piv = min(candidates, key=lambda r: (len(rows[r]), r))
        else:
            piv = min(candidates, key=lambda r: (abs(rows[r][col]) != 1, len(rows[r]), r))
        pivots.append((piv, col))
        in_pivot.add(piv)
        prow = rows[piv]
        b = prow[col]
        for r in holders if reduce else candidates:
            if r == piv:
                continue
            trow = rows[r]
            a = trow[col]
            if p:
                factor = a * pow(b, p - 2, p) % p
                for j, pv in prow.items():
                    w = (trow.get(j, 0) - factor * pv) % p
                    if w:
                        trow[j] = w
                    else:
                        trow.pop(j, None)
            else:
                g = gcd(a, b)
                ca, cb = b // g, a // g
                if ca < 0:
                    ca, cb = -ca, -cb
                for j in set(trow) | set(prow):
                    w = ca * trow.get(j, 0) - cb * prow.get(j, 0)
                    if w:
                        trow[j] = w
                    else:
                        trow.pop(j, None)
                _normalize_content(trow)
    return pivots


def _unit_eliminate(rows, p):
    """Markowitz-ordered sparse elimination on integer rows, in place.

    `rows` is a list of {col: nonzero int}.  Over Z or Q (p = 0, Q rows
    with their denominators cleared) only entries +-1 are taken as pivots;
    over F_p (p prime, entries reduced mod p) any nonzero entry is.  The
    next pivot comes from the shortest column that has one, and within it
    from the shortest row; a lazy heap keyed on column length finds that
    column, and a column is looked at again whenever an update touches it.

    Each pivot's row and column are deleted.  Up to unimodular row and
    column operations, a unit pivot splits off as a 1 x 1 block beside the
    Schur complement, so rank and Smith form are those of what is left
    plus one unit per pivot.  Returns the list of pivot columns, which are
    independent columns of the input; the non-pivot rows are left holding
    the Schur complement (the residual), which is empty over F_p.
    """
    col_rows = {}
    for r, row in enumerate(rows):
        for j in row:
            holders = col_rows.get(j)
            if holders is None:
                col_rows[j] = {r}
            else:
                holders.add(r)
    heap = [(len(holders), j) for j, holders in col_rows.items()]
    heapify(heap)
    barren = set()  # columns seen without a unit since their last update
    pivots = []
    while heap:
        length, c = heappop(heap)
        holders = col_rows.get(c)
        if holders is None or len(holders) != length or c in barren:
            continue
        candidates = holders if p else [r for r in holders if rows[r][c] in (1, -1)]
        if not candidates:
            barren.add(c)
            continue
        r0 = min(candidates, key=lambda r: (len(rows[r]), r))
        prow = rows[r0]
        rows[r0] = {}
        b = prow.pop(c)
        inv = pow(b, p - 2, p) if p else b  # a unit is its own inverse over Z
        del col_rows[c]
        holders.discard(r0)
        for j in prow:
            col_rows[j].discard(r0)
        for r in holders:
            trow = rows[r]
            f = trow.pop(c) * inv
            if p:
                f %= p
                for j, v in prow.items():
                    w = trow.get(j)
                    if w is None:
                        trow[j] = -f * v % p
                        col_rows[j].add(r)
                    else:
                        w = (w - f * v) % p
                        if w:
                            trow[j] = w
                        else:
                            del trow[j]
                            col_rows[j].discard(r)
            else:
                for j, v in prow.items():
                    w = trow.get(j)
                    if w is None:
                        trow[j] = -f * v
                        col_rows[j].add(r)
                    else:
                        w -= f * v
                        if w:
                            trow[j] = w
                        else:
                            del trow[j]
                            col_rows[j].discard(r)
        for j in prow:
            holders = col_rows[j]
            if holders:
                barren.discard(j)
                heappush(heap, (len(holders), j))
            else:
                del col_rows[j]
        pivots.append(c)
    return pivots


def _residual(rows):
    """The nonzero rows left by `_unit_eliminate`, columns renumbered from 0.

    Returns (rows, ncols).  Zero rows and columns carry no rank and no
    invariant factor, so dropping them changes neither.
    """
    rows = [row for row in rows if row]
    index = {j: k for k, j in enumerate(sorted({j for row in rows for j in row}))}
    return [{index[j]: v for j, v in row.items()} for row in rows], len(index)


def _reduce(matrix):
    """(rank, torsion): the rank over the matrix's own domain and, over Z,
    the invariant factors above 1 in divisibility order (else ()).

    Unit pivots first (`_unit_eliminate`), then the residual, which is empty
    over F_p: over Q fraction-free elimination in column order (`_echelon`),
    over Z the Euclid loop.  A zero matrix builds no rows.  A `_Compressed`
    boundary is left holding the columns of the unit pivots.
    """
    dom = matrix.domain
    if matrix.is_zero():
        return 0, ()
    rows = _integer_rows(matrix) if dom.is_field else _row_dicts(matrix)
    pivots = _unit_eliminate(rows, dom.char)
    if isinstance(matrix, _Compressed):
        matrix.pivots = pivots
    if dom.char:
        return len(pivots), ()
    rest, ncols = _residual(rows)
    if dom.is_field:
        return len(pivots) + len(_echelon(rest, ncols, 0, reduce=False)), ()
    factors = [f for f in _euclid_smith(rest, ncols) if f]
    return len(pivots) + len(factors), tuple(f for f in factors if f > 1)


def rank(matrix):
    """Rank over the matrix's own domain (over Z this is the rank over Q)."""
    return _reduce(matrix)[0]


def kernel_data(matrix):
    """Kernel basis together with the free column owned by each vector.

    Returns (basis, free_columns) where basis[i] has value 1 at
    free_columns[i] and every other basis vector vanishes there.
    """
    dom = matrix.domain
    if not dom.is_field:
        raise ValueError("kernel_basis needs a field domain")
    if matrix.ncols == 0:
        return [], []
    rows = _integer_rows(matrix)
    p = dom.char
    pivots = _echelon(rows, matrix.ncols, p, reduce=True)
    pivot_cols = {c for _, c in pivots}
    norm_rows = []
    for r, c in pivots:
        row = rows[r]
        lead = row[c]
        if p:
            inv = pow(lead, p - 2, p)
            norm_rows.append((c, {j: v * inv % p for j, v in row.items() if j != c}))
        else:
            norm_rows.append((c, {j: Fraction(v, lead) for j, v in row.items() if j != c}))
    basis = []
    free = []
    for f in range(matrix.ncols):
        if f in pivot_cols:
            continue
        vec = {f: dom.one}
        for c, row in norm_rows:
            v = row.get(f)
            if v:
                vec[c] = dom.coerce(-v)
        basis.append(vec)
        free.append(f)
    return basis, free


def kernel_basis(matrix):
    """Deterministic basis of the right kernel {v : Mv = 0}, over a field.

    One basis vector per free column, ordered by free column index; the
    vector sits over the reduced echelon form, with value 1 at its free
    column.  This is the unique RREF kernel basis.
    """
    return kernel_data(matrix)[0]


def _symmetric_divmod(a, b):
    # a == q * b + r with |r| <= |b| / 2; the adjustment r -> r - b always
    # pairs with q -> q + 1, whatever the sign of b
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
        r -= b
    return q, r


def _add_multiple(dst, src, q):
    """dst += q * src, for sparse vectors {index: int}."""
    for j, v in src.items():
        w = dst.get(j, 0) + q * v
        if w:
            dst[j] = w
        else:
            dst.pop(j, None)


def _add_col(rows, dst, src, q):
    """Column dst += q * column src, on a matrix held as row dicts."""
    for row in rows:
        v = row.get(src)
        if v:
            w = row.get(dst, 0) + q * v
            if w:
                row[dst] = w
            else:
                row.pop(dst, None)


def _swap_cols(rows, a, b):
    """Swap columns a and b of a matrix held as row dicts."""
    for row in rows:
        va, vb = row.pop(a, None), row.pop(b, None)
        if va is not None:
            row[b] = va
        if vb is not None:
            row[a] = vb


def _euclid_smith(rows, ncols, u=None, v=None):
    """Bring the integer row dicts `rows` (ncols columns) to Smith form in
    place by Euclid steps; returns the diagonal.

    u, when given, is the row dicts of a matrix that takes every row
    operation, and v those of one that takes every column operation, so
    starting from identities they end as U and V with U @ M @ V = S.  The
    inputs are small or have few rows (what `_unit_eliminate` leaves), so
    there is no column index: a column operation walks the rows.
    """
    row_mats = (rows,) if u is None else (rows, u)
    col_mats = (rows,) if v is None else (rows, v)
    m = len(rows)
    limit = min(m, ncols)
    for k in range(limit):
        least = min(((abs(x), i, j) for i in range(k, m) for j, x in rows[i].items() if j >= k),
                    default=None)
        if least is None:
            break
        _, i, j = least
        while True:
            # move entry (i, j) to the pivot, then one sweep reduces column k
            # and row k modulo it; the least remainder is the next pivot
            for mat in row_mats:
                mat[k], mat[i] = mat[i], mat[k]
            if j != k:
                for mat in col_mats:
                    _swap_cols(mat, k, j)
            b = rows[k][k]
            for r in range(k + 1, m):
                a = rows[r].get(k)
                if a:
                    q = _symmetric_divmod(a, b)[0]
                    for mat in row_mats:
                        _add_multiple(mat[r], mat[k], -q)
            for c in [c for c in rows[k] if c > k]:
                q = _symmetric_divmod(rows[k][c], b)[0]
                for mat in col_mats:
                    _add_col(mat, c, k, -q)
            rest = [(abs(rows[i][k]), i, k) for i in range(k + 1, m) if k in rows[i]]
            rest += [(abs(x), k, j) for j, x in rows[k].items() if j > k]
            if rest:
                _, i, j = min(rest)
                continue
            # the pivot is isolated; it must divide what is left, or a
            # row holding an entry it does not divide is added to row k
            offender = next((r for r in range(k + 1, m)
                             if any(x % b for c, x in rows[r].items() if c > k)), None)
            if offender is None:
                break
            for mat in row_mats:
                _add_multiple(mat[k], mat[offender], 1)
            i = j = k
        if rows[k][k] < 0:
            for mat in row_mats:
                mat[k] = {j: -x for j, x in mat[k].items()}
    return [rows[i].get(i, 0) for i in range(limit)]


def smith_normal_form(matrix, with_transforms=True):
    """Smith normal form over Z.

    Returns (s, u, v) with u @ matrix @ v == s, where u and v are unimodular
    and s is diagonal with each diagonal entry dividing the next.  With
    with_transforms=False, u and v are returned as None: the unit pivots are
    eliminated first (`_unit_eliminate`) and the Euclid loop runs only on
    the residual (`_reduce`).  The transform-tracking path, the tests'
    oracle, runs the Euclid loop on the whole matrix, with u and v kept as
    row dicts.
    """
    if matrix.domain is not ZZ:
        raise ValueError("smith_normal_form is defined over Z")
    m, n = matrix.nrows, matrix.ncols
    if with_transforms:
        u = [{i: 1} for i in range(m)]
        v = [{j: 1} for j in range(n)]
        diag = _euclid_smith(_row_dicts(matrix), n, u, v)
    else:
        r, torsion = _reduce(matrix)
        diag = [1] * (r - len(torsion)) + list(torsion)
    s = Matrix(m, n, ZZ)
    for i, d in enumerate(diag):
        if d:
            s.set(i, i, d)
    if not with_transforms:
        return s, None, None
    return s, Matrix.from_columns(u, m, ZZ).transpose(), Matrix.from_columns(v, n, ZZ).transpose()


def invariant_factors(matrix):
    """Diagonal of the Smith form, nonzero entries only, divisibility order."""
    s, _, _ = smith_normal_form(matrix, with_transforms=False)
    out = [s.get(i, i) for i in range(min(s.nrows, s.ncols))]
    return [v for v in out if v]


class InvariantError(ValueError):
    """An identity that holds by construction failed, at `degree` if it has
    one: a bug, not bad input."""

    def __init__(self, identity, degree=None):
        where = "" if degree is None else f" in degree {degree}"
        super().__init__(f"{identity} fails{where}")
        self.identity = identity
        self.degree = degree


class _ColumnsWithout(Mapping):
    """A read-only view of a column store {j: {i: v}} without the rows in
    `rows`: each column is filtered when it is read, none is copied."""

    def __init__(self, cols, rows):
        self._base = cols
        self._rows = rows

    def __getitem__(self, j):
        col = {i: v for i, v in self._base[j].items() if i not in self._rows}
        if not col:
            raise KeyError(j)
        return col

    def __iter__(self):
        rows = self._rows
        return (j for j, col in self._base.items() if not rows.issuperset(col))

    def __len__(self):
        return sum(1 for _ in self)


class _Compressed(Matrix):
    """A boundary with the rows in `deleted` (a set) zeroed; the shape is kept.

    Its columns are a view of the boundary's (`_ColumnsWithout`), so it is
    for reading only.  `_reduce` leaves the columns of its unit pivots in
    `pivots`: the rows to delete from the next boundary of the complex.
    """

    __slots__ = ("pivots",)

    def __init__(self, boundary, deleted):
        super().__init__(boundary.nrows, boundary.ncols, boundary.domain)
        self._cols = _ColumnsWithout(boundary._cols, deleted) if deleted else boundary._cols
        self.pivots = []


class Complex:
    """A chain complex of free modules: boundaries d[0..N], d[n]: C_n -> C_(n-1).

    d[n-1] @ d[n] = 0 is checked once, here, and the product rejects shapes
    or domains that do not match with a ValueError; `name` labels the
    complex in the error.  The one complex built without the check is
    `cyclic.TotComplex`, whose d^2 = 0 the identities of its mixed complex
    already imply (the proof is there).  `homology(n)` reduces the
    boundaries in degree order, d[0] up to d[n+1], each at most once, and
    caches the rank of each (`boundary_rank`) and, over Z, its torsion.
    `rank` reduces them over a field; over Z `invariant_factors` reduces
    d[1] and up, and `rank` d[0], whose torsion would be that of H_-1.

    The reduction compresses (Chen and Kerber 2011; Bauer, Kerber and
    Reininghaus 2014): before d[k+1] is reduced, the rows indexed by the
    pivot columns Q of d[k] are deleted from it.  Those columns are
    independent, so ker d[k] meets the span of the basis vectors Q only in
    0 and projects injectively away from Q; im d[k+1] lies in ker d[k], so
    the deletion keeps the rank of d[k+1].  Q holds the engine's unit
    pivots only (every pivot over F_p, the +-1 ones over Z and Q, never the
    residual's), so over Z the pivot block is unimodular: a kernel vector
    whose projection is divisible by m is itself divisible by m, the
    projected kernel stays a direct summand, and the invariant factors of
    d[k+1] do not change.  Deleting rows keeps the kernel, so the argument
    holds again in every later degree.  A residual pivot is no unit, and
    its row must stay: below, d[1] has no unit, the Euclid loop pivots on
    its entry 2 in column 0, and deleting row 0 of d[2] would leave [[-2]],
    a false Z/2.

        >>> d1 = Matrix.from_dense([[2, 3]], ZZ)
        >>> d2 = Matrix.from_dense([[3], [-2]], ZZ)
        >>> Complex([Matrix(0, 1, ZZ), d1, d2]).homology(1)
        HomologyResult(degree=1, betti=0, torsion=())
    """

    def __init__(self, d, name="complex"):
        for n in range(1, len(d)):
            if not (d[n - 1] @ d[n]).is_zero():
                raise InvariantError(f"d^2 = 0 of the {name}", n)
        self._set_up(d)

    def _set_up(self, d):
        """The fields of a complex on boundaries d, with no d^2 = 0 check."""
        self.d = list(d)
        self.domain = d[0].domain
        self.max_degree = len(d) - 1
        self.dims = [m.ncols for m in d]
        self._reduced = []  # per degree: (rank, torsion)
        self._pivots = []  # unit pivot columns of the last boundary reduced

    def boundary_rank(self, n):
        """The rank of d[n]; d[0] up to d[n] are reduced first, in degree
        order, each at most once."""
        if not (0 <= n <= self.max_degree):
            raise ValueError(f"no boundary d[{n}] (need 0 <= n <= {self.max_degree})")
        while len(self._reduced) <= n:
            k = len(self._reduced)
            m = _Compressed(self.d[k], set(self._pivots))
            if self.domain is ZZ and k:
                factors = invariant_factors(m)
                self._reduced.append((len(factors), tuple(f for f in factors if f > 1)))
            else:
                self._reduced.append((rank(m), ()))
            self._pivots = m.pivots
        return self._reduced[n][0]

    def homology(self, n):
        """ker d[n] / im d[n+1]: a betti number and, over Z, the torsion.

        Over Z the torsion is the invariant factors of d[n+1] that exceed 1
        (the kernel of a map of free abelian groups is a direct summand).
        """
        if not (0 <= n < self.max_degree):
            raise ValueError(f"degree {n} out of range (need n + 1 <= {self.max_degree})")
        low, high = self.boundary_rank(n), self.boundary_rank(n + 1)
        return HomologyResult(degree=n, betti=self.dims[n] - low - high,
                              torsion=self._reduced[n + 1][1])


def homology_at(d_out, d_in, degree=0):
    """Homology ker(d_out) / im(d_in) of  C_in --d_in--> C --d_out--> C_out.

    The one-pair form of `Complex.homology`; a pair that does not compose
    to zero raises `InvariantError`, a ValueError.
    """
    return replace(Complex([d_out, d_in]).homology(0), degree=degree)
