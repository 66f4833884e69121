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

Rank and Smith form share one sparse elimination engine,
`_unit_eliminate`.  It works on integer rows (Q rows with their
denominators cleared), picks pivots in Markowitz order (shortest column,
then shortest row) and deletes each pivot's row and column.  Over F_p any
nonzero entry is a pivot, so the rank is the pivot count.  Over Z and Q
only +-1 entries are, and a unit pivot splits off exactly: the Smith form
of the matrix is 1 + that of the Schur complement.  What is left is a small
residual: `rank` finishes it with fraction-free elimination, and
`smith_normal_form` without transforms runs its Euclid loop on it only
(reduce-then-SNF).  The transform-tracking Smith form runs the Euclid loop
on the whole matrix.

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
it is a field.  Block matrices (the total complex of a mixed complex,
iterated mapping cones) are laid out by `Matrix.block`, never by
hand-written offsets.

`kernel_basis` uses fraction-free elimination in column order, with
content normalization so entries stay small; its reduced echelon form is
unique, which keeps every downstream basis reproducible bit for bit.

`Complex` is the one chain-complex value: it checks d^2 = 0 once, when it
is built (the package's only such check), and its `homology` reduces each
boundary at most once.  A failed identity raises `InvariantError`.
"""

from __future__ import annotations

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
    def zeros(cls, nrows, ncols, domain):
        return cls(nrows, ncols, domain)

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
        """Build from a list of sparse columns ({row: value}).

        Each column is finished in one pass, with no per-entry `set`: a row
        outside range(nrows) raises IndexError, an int is reduced mod p over
        F_p, any other value goes through `domain.coerce` (so an inexact one
        raises TypeError), and zeros are dropped.
        """
        m = cls(nrows, len(columns), domain)
        p = domain.char
        coerce = domain.coerce
        cols = m._cols
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


@dataclass(frozen=True)
class HomologyResult:
    """Homology in one degree: a betti number and, over Z, torsion factors."""

    degree: int
    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative betti number")

    def describe(self):
        parts = [f"betti {self.betti}"]
        if self.torsion:
            parts.append("torsion " + " + ".join(f"Z/{t}" for t in self.torsion))
        return f"H_{self.degree}: " + ", ".join(parts)


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
    """
    col_rows = {}
    for r, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(r)

    def retouch(r, before, after):
        for j in before - after:
            s = col_rows.get(j)
            if s is not None:
                s.discard(r)
                if not s:
                    del col_rows[j]
        for j in after - before:
            col_rows.setdefault(j, set()).add(r)

    pivots = []
    in_pivot = set()
    for col in range(ncols):
        holders = col_rows.get(col)
        if not holders:
            continue
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
        targets = (holders - {piv}) if reduce else {r for r in candidates if r != piv}
        for r in sorted(targets):
            trow = rows[r]
            a = trow[col]
            before = set(trow)
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
            retouch(r, before, set(trow))
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
    plus one unit per pivot.  Returns the pivot count; the non-pivot rows are left
    holding the Schur complement (the residual), which is empty over F_p.
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
    count = 0
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
        count += 1
    return count


def _residual(rows):
    """The nonzero rows left by `_unit_eliminate`, columns renumbered from 0.

    Returns (rows, ncols).  Zero rows and columns carry no rank and no
    invariant factor, so dropping them changes neither.
    """
    rows = [row for row in rows if row]
    index = {j: k for k, j in enumerate(sorted({j for row in rows for j in row}))}
    return [{index[j]: v for j, v in row.items()} for row in rows], len(index)


def rank(matrix):
    """Rank over the matrix's own domain (over Z this is the rank over Q).

    Unit pivots first (`_unit_eliminate`), then fraction-free elimination
    of the residual, which is empty over F_p.
    """
    if matrix.is_zero():
        return 0
    rows = _integer_rows(matrix)
    p = matrix.domain.char
    pivots = _unit_eliminate(rows, p)
    if p:
        return pivots
    rest, ncols = _residual(rows)
    return pivots + len(_echelon(rest, ncols, 0, reduce=False))


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


class _SnfWork:
    """Mutable integer matrix with tracked elementary row/column operations."""

    def __init__(self, rows, ncols, with_transforms):
        self.m = len(rows)
        self.n = ncols
        self.rows = rows
        self.col_rows = {}
        for i, row in enumerate(rows):
            for j in row:
                self.col_rows.setdefault(j, set()).add(i)
        self.track = with_transforms
        if with_transforms:
            self.u = [{i: 1} for i in range(self.m)]
            self.v_cols = [{j: 1} for j in range(self.n)]

    def _set(self, i, j, v):
        if v:
            self.rows[i][j] = v
            self.col_rows.setdefault(j, set()).add(i)
        else:
            self.rows[i].pop(j, None)
            s = self.col_rows.get(j)
            if s is not None:
                s.discard(i)
                if not s:
                    del self.col_rows[j]

    def swap_rows(self, a, b):
        if a == b:
            return
        for j in set(self.rows[a]) | set(self.rows[b]):
            s = self.col_rows.setdefault(j, set())
            ja, jb = self.rows[a].get(j), self.rows[b].get(j)
            s.discard(a)
            s.discard(b)
            if ja is not None:
                s.add(b)
            if jb is not None:
                s.add(a)
            if not s:
                del self.col_rows[j]
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]
        if self.track:
            self.u[a], self.u[b] = self.u[b], self.u[a]

    def swap_cols(self, a, b):
        if a == b:
            return
        holders = self.col_rows.get(a, set()) | self.col_rows.get(b, set())
        for i in holders:
            va, vb = self.rows[i].get(a), self.rows[i].get(b)
            if va is None and vb is None:
                continue
            if vb is None:
                self.rows[i].pop(a)
                self.rows[i][b] = va
            elif va is None:
                self.rows[i].pop(b)
                self.rows[i][a] = vb
            else:
                self.rows[i][a], self.rows[i][b] = vb, va
        ca = self.col_rows.pop(a, None)
        cb = self.col_rows.pop(b, None)
        if cb is not None:
            self.col_rows[a] = cb
        if ca is not None:
            self.col_rows[b] = ca
        if self.track:
            self.v_cols[a], self.v_cols[b] = self.v_cols[b], self.v_cols[a]

    def add_row(self, dst, src, q):
        """Row_dst += q * Row_src."""
        if not q:
            return
        for j, v in list(self.rows[src].items()):
            self._set(dst, j, self.rows[dst].get(j, 0) + q * v)
        if self.track:
            u = self.u[dst]
            for j, v in self.u[src].items():
                w = u.get(j, 0) + q * v
                if w:
                    u[j] = w
                else:
                    u.pop(j, None)

    def add_col(self, dst, src, q):
        """Col_dst += q * Col_src."""
        if not q:
            return
        for i in list(self.col_rows.get(src, set())):
            self._set(i, dst, self.rows[i].get(dst, 0) + q * self.rows[i][src])
        if self.track:
            vc = self.v_cols[dst]
            for i, v in self.v_cols[src].items():
                w = vc.get(i, 0) + q * v
                if w:
                    vc[i] = w
                else:
                    vc.pop(i, None)

    def negate_row(self, r):
        for j in self.rows[r]:
            self.rows[r][j] = -self.rows[r][j]
        if self.track:
            self.u[r] = {j: -v for j, v in self.u[r].items()}


def _euclid_smith(work):
    """Bring `work` to Smith form in place by Euclid steps; returns the diagonal."""
    m, n = work.m, work.n
    k = 0
    limit = min(m, n)
    while k < limit:
        best = None
        for j, holders in work.col_rows.items():
            if j < k:
                continue
            for i in holders:
                if i < k:
                    continue
                v = abs(work.rows[i][j])
                key = (v, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, bi, bj = best
        work.swap_rows(k, bi)
        work.swap_cols(k, bj)
        while True:
            # clear column k with row operations, Euclid-stepping as needed
            dirty = False
            while True:
                holders = [i for i in work.col_rows.get(k, set()) if i > k]
                if not holders:
                    break
                b = work.rows[k][k]
                i = min(holders)
                a = work.rows[i][k]
                q, r = _symmetric_divmod(a, b)
                work.add_row(i, k, -q)
                if r:
                    work.swap_rows(k, i)
            while True:
                cols = [j for j in work.rows[k] if j > k]
                if not cols:
                    break
                dirty = True
                b = work.rows[k][k]
                j = min(cols)
                a = work.rows[k][j]
                q, r = _symmetric_divmod(a, b)
                work.add_col(j, k, -q)
                if r:
                    work.swap_cols(k, j)
            if not dirty and not any(i > k for i in work.col_rows.get(k, set())):
                pivot = work.rows[k].get(k, 0)
                offender = None
                if pivot:
                    for j, holders in work.col_rows.items():
                        if j <= k:
                            continue
                        for i in holders:
                            if i > k and work.rows[i][j] % pivot:
                                offender = i
                                break
                        if offender is not None:
                            break
                if offender is None:
                    break
                work.add_row(k, offender, 1)
        if work.rows[k].get(k, 0) < 0:
            work.negate_row(k)
        k += 1
    return [work.rows[i].get(i, 0) for i in range(limit)]


def smith_normal_form(matrix, with_transforms=True):
    """Smith normal form over Z.

    Returns (s, u, v) with u @ matrix @ v == s, where u and v are unimodular
    and s is diagonal with each diagonal entry dividing the next.  With
    with_transforms=False, u and v are returned as None: the unit pivots are
    eliminated first (`_unit_eliminate`) and the Euclid loop runs only on
    the residual.  The transform-tracking path runs the Euclid loop on the
    whole matrix.
    """
    if matrix.domain is not ZZ:
        raise ValueError("smith_normal_form is defined over Z")
    m, n = matrix.nrows, matrix.ncols
    rows = _row_dicts(matrix)
    if with_transforms:
        work = _SnfWork(rows, n, True)
        diag = _euclid_smith(work)
    else:
        units = _unit_eliminate(rows, 0)
        rest, ncols = _residual(rows)
        diag = [1] * units + _euclid_smith(_SnfWork(rest, ncols, False))
    s = Matrix(m, n, ZZ)
    for i, v in enumerate(diag):
        if v:
            s.set(i, i, v)
    if not with_transforms:
        return s, None, None
    u = Matrix(m, m, ZZ)
    for i, row in enumerate(work.u):
        for j, v in row.items():
            u.set(i, j, v)
    v = Matrix(n, n, ZZ)
    for j, col in enumerate(work.v_cols):
        for i, val in col.items():
            v.set(i, j, val)
    return s, u, v


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


class Complex:
    """A chain complex of free modules: boundaries d[0..N], d[n]: C_n -> C_(n-1).

    d[n-1] @ d[n] = 0 is checked once, here, and the product rejects shapes
    or domains that do not match with a ValueError; `name` labels the
    complex in the error.  `homology(n)` reduces each boundary at most once
    and caches the result: its rank over a field, its invariant factors over
    Z, where the rank is the number of factors.
    """

    def __init__(self, d, name="complex"):
        for n in range(1, len(d)):
            if not (d[n - 1] @ d[n]).is_zero():
                raise InvariantError(f"d^2 = 0 of the {name}", n)
        self.d = list(d)
        self.domain = d[0].domain
        self.max_degree = len(d) - 1
        self.dims = [m.ncols for m in d]
        self._ranks = {}
        self._factors = {}

    def homology(self, n):
        """ker d[n] / im d[n+1]: a betti number and, over Z, the torsion.

        Over Z the torsion is the invariant factors of d[n+1] that exceed 1
        (the kernel of a map of free abelian groups is a direct summand).
        """
        if not (0 <= n < self.max_degree):
            raise ValueError(f"degree {n} out of range (need n + 1 <= {self.max_degree})")
        torsion = ()
        if self.domain is ZZ:
            torsion = tuple(f for f in self._invariant_factors(n + 1) if f > 1)
        betti = self.dims[n] - self._rank(n) - self._rank(n + 1)
        return HomologyResult(degree=n, betti=betti, torsion=torsion)

    def _rank(self, n):
        if n in self._factors:
            return len(self._factors[n])
        if n not in self._ranks:
            self._ranks[n] = rank(self.d[n])
        return self._ranks[n]

    def _invariant_factors(self, n):
        if n not in self._factors:
            self._factors[n] = invariant_factors(self.d[n])
        return self._factors[n]


def homology_at(d_out, d_in, degree=0):
    """Homology ker(d_out) / im(d_in) of  C_in --d_in--> C --d_out--> C_out.

    The one-pair form of `Complex.homology`; a pair that does not compose
    to zero raises `InvariantError`, a ValueError.
    """
    return replace(Complex([d_out, d_in]).homology(0), degree=degree)
