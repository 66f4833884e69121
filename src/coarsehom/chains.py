"""Coarse ordinary chains: controlled tuples, boundary, homology.

Degree n chains are functions on (n+1)-tuples of points whose coordinates
all lie in one coarse component (that is exactly u_star-control on finite
carriers).  The invariant complex uses one basis vector per G-orbit of
tuples, equal to the sum of the orbit's indicator chains; this is a basis
of the invariant chains over any coefficient ring, including Z.

The degree-n basis is one value, `OrbitBasis`: the sorted least tuples of
the orbits, with their index.  The least tuple of an orbit starts at the
least point of x_0's orbit, so its representative is found from a per-point
table of the elements that send x_0 there (one for a free action); the
basis is enumerated from first points that are orbit minima, and plain
tuples are never listed.  The plain (non-equivariant) complex of x is the
complex of `spaces.underlying(x)`, whose only group element is the
identity, so each of its orbits is one tuple.  Every chain map (boundary,
pushforward, and the trace's t, front insertion and phi) is built by one
method: sum a plain image over each source orbit and collect it on the
target basis, checking that it is constant on orbits.

XH is computed on the normalized (Moore) complex, `CoarseChainComplex`.
A tuple with x_i = x_(i+1) is degenerate; the degenerate chains span an
acyclic subcomplex (Eilenberg-Mac Lane), so the quotient by them has the
same homology.  Its basis, `MooreBasis`, lists only the orbits of
nondegenerate tuples, enumerated with each coordinate different from the
one before, so the tuple cap counts nondegenerate representatives.  Its
`collect` checks constancy on every orbit of an image and then drops the
degenerate orbits, which are zero in the quotient.  Faces and
pushforwards are simplicial, so they descend.  The trace alone uses
`TupleChainComplex`, the same complex on every orbit: the chain-level t
and front insertion do not descend to the quotient, and phi . B, which is
nonzero on the full complex, vanishes on the quotient in degree 0.

Either complex is a `linalg.Complex`: it enumerates each basis once,
builds every boundary from those, and checks d^2 = 0 once.  Its homology
over Z is reduce-then-SNF (betti plus torsion), and over a field a rank
computation; either way each boundary is reduced once.
"""

from __future__ import annotations

from itertools import product
from operator import ne

from .linalg import ZZ, Complex, InvariantError, Matrix, finished
from .spaces import is_morphism

DEFAULT_MAX_DEGREE = 4
DEFAULT_TUPLE_CAP = 200_000


class ControlledChain:
    """A finitely supported function on controlled (n+1)-tuples."""

    def __init__(self, space, degree, coefficients, domain, check=True):
        self.space = space
        self.degree = degree
        self.domain = domain
        self.coefficients = {}
        for tup, val in coefficients.items():
            v = domain.coerce(val)
            if v != domain.zero:
                self.coefficients[tuple(tup)] = v
        if check:
            for tup in self.coefficients:
                if len(tup) != degree + 1:
                    raise ValueError(f"tuple {tup} has the wrong length for degree {degree}")
                first = tup[0]
                for x in tup:
                    if not space.related(first, x):
                        raise ValueError(f"tuple {tup} is not u_star-controlled")

    def is_invariant(self):
        sp = self.space
        for g in range(len(sp.group)):
            for tup, val in self.coefficients.items():
                moved = tuple(sp.act(g, x) for x in tup)
                if self.coefficients.get(moved, self.domain.zero) != val:
                    return False
        return True

    def __add__(self, other):
        if (self.space is not other.space or self.degree != other.degree
                or self.domain is not other.domain):
            raise ValueError("chain sum needs matching space, degree and domain")
        out = dict(self.coefficients)
        for tup, val in other.coefficients.items():
            out[tup] = out.get(tup, 0) + val
        return ControlledChain(self.space, self.degree, out, self.domain, check=False)

    def scale(self, c):
        c = self.domain.coerce(c)
        out = {t: c * v for t, v in self.coefficients.items()}
        return ControlledChain(self.space, self.degree, out, self.domain, check=False)

    def is_zero(self):
        return not self.coefficients

    def __eq__(self, other):
        return (
            isinstance(other, ControlledChain)
            and self.space is other.space
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"<ControlledChain degree={self.degree} support={len(self.coefficients)}>"


class OrbitBasis(list):
    """The degree-n basis: the sorted orbit representatives of controlled tuples.

    Each representative is the least tuple of its orbit and stands for the
    sum of the orbit's indicator chains.  The least tuple of an orbit starts
    at the least point of x_0's orbit, so `rep` tries only the elements that
    send x_0 there (one for a free action).
    """

    def __init__(self, space, n, cap=DEFAULT_TUPLE_CAP):
        super().__init__()
        self.degree = n
        self._rows = tuple(dict.fromkeys(map(tuple, space.action)))
        least = [min(g[x] for g in self._rows) for x in range(space.n)]
        self._lead = [[g for g in self._rows if g[x] == least[x]] for x in range(space.n)]
        for component in space.components():
            for first in component:
                if least[first] != first:
                    continue
                for tup in self._tuples(first, component, n):
                    if self.rep(tup) == tup:
                        self.append(tup)
                        if len(self) > cap:
                            raise ValueError(f"more than {cap} basis tuples in degree {n}")
        self.sort()
        self.index = {t: i for i, t in enumerate(self)}

    @staticmethod
    def _tuples(first, component, n):
        """Every (n+1)-tuple from `first` into its component."""
        return ((first,) + tail for tail in product(component, repeat=n))

    @staticmethod
    def _kept(tup):
        """Whether tup's orbit is a basis element rather than zero in the quotient."""
        return True

    def rep(self, tup):
        """The least tuple of tup's orbit."""
        return min(tuple(map(g.__getitem__, tup)) for g in self._lead[tup[0]])

    def orbit(self, tup):
        return {tuple(map(g.__getitem__, tup)) for g in self._rows}

    def collect(self, plain, domain):
        """Rewrite an invariant plain chain in orbit-sum coordinates.

        Constancy is checked on every orbit of the chain, also on orbits
        that are not basis elements; those are then dropped.
        """
        col = {}
        seen = set()
        for tup in plain:
            if tup in seen:
                continue
            orbit = self.orbit(tup)
            seen |= orbit
            vals = {plain.get(member, domain.zero) for member in orbit}
            if len(vals) != 1:
                raise InvariantError("an invariant chain is constant on orbits", len(tup) - 1)
            v = vals.pop()
            if v != domain.zero and self._kept(tup):
                col[self.index[min(orbit)]] = v
        return col

    def matrix(self, target, image, domain):
        """The map sending each orbit sum to the sum of `image` over its members.

        `image(member)` gives plain coefficients, summed with + and then
        `finished`; each column is collected on the target basis.
        """
        cols = []
        for rep in self:
            plain = {}
            for member in self.orbit(rep):
                for tup, val in image(member).items():
                    plain[tup] = plain.get(tup, 0) + val
            cols.append(target.collect(finished(plain, domain), domain))
        return Matrix.from_columns(cols, len(target), domain)


class MooreBasis(OrbitBasis):
    """The normalized degree-n basis: the orbits of tuples with no x_i = x_(i+1).

    Degenerate tuples span a subcomplex with zero homology, so the quotient
    (the Moore complex) has the homology of the full complex.  Only
    nondegenerate tuples are enumerated, so the cap counts them; `collect`
    drops the degenerate orbits of an image, which are zero in the quotient.
    """

    @staticmethod
    def _tuples(first, component, n):
        """Every (n+1)-tuple from `first` into its component whose neighbours differ."""
        others = {x: [y for y in component if y != x] for x in component}

        def grow(prefix, k):
            if k == n:
                yield prefix
                return
            for x in others[prefix[-1]]:
                yield from grow(prefix + (x,), k + 1)

        return grow((first,), 0)

    @staticmethod
    def _kept(tup):
        return all(map(ne, tup, tup[1:]))


def controlled_tuple_basis(space, n, cap=DEFAULT_TUPLE_CAP, kind=OrbitBasis):
    """Ordered degree-n basis of orbit representatives, of every controlled
    tuple (`OrbitBasis`) or of the nondegenerate ones (`MooreBasis`).

    The cap bounds the number of representatives.
    """
    return kind(space, n, cap)


def basis_chain(space, tup, domain):
    """The chain a basis element stands for: the sum over its orbit."""
    orbit = controlled_tuple_basis(space, len(tup) - 1).orbit(tuple(tup))
    return ControlledChain(space, len(tup) - 1, dict.fromkeys(orbit, domain.one), domain,
                           check=False)


def _boundary_of_tuple(tup):
    """Plain integer boundary coefficients of one indicator chain, with the
    zeros of degenerate tuples kept; callers finish them in their domain."""
    out = {}
    for i in range(len(tup)):
        face = tup[:i] + tup[i + 1 :]
        out[face] = out.get(face, 0) + (-1) ** i
    return out


def _boundary_on(n, basis_n, basis_prev, domain):
    """Boundary matrix from degree n to n - 1 on bases already enumerated."""
    if n == 0:
        return Matrix(0, len(basis_n), domain)
    return basis_n.matrix(basis_prev, _boundary_of_tuple, domain)


def boundary(space, n, domain=ZZ, cap=DEFAULT_TUPLE_CAP):
    """The normalized boundary from degree n to n - 1, as `CoarseChainComplex.d[n]`.

    It enumerates both bases again; read the complex's `d` instead.  The
    name stays because the benchmark's tracer wraps it.
    """
    basis_n = controlled_tuple_basis(space, n, cap, MooreBasis)
    basis_prev = controlled_tuple_basis(space, n - 1, cap, MooreBasis) if n else []
    return _boundary_on(n, basis_n, basis_prev, domain)


def boundary_of_chain(c):
    """The boundary of a chain, degree n >= 1."""
    if c.degree == 0:
        raise ValueError("no boundary below degree 0")
    out = {}
    for tup, val in c.coefficients.items():
        for face, delta in _boundary_of_tuple(tup).items():
            out[face] = out.get(face, 0) + val * delta
    return ControlledChain(c.space, c.degree - 1, out, c.domain, check=False)


class CoarseChainComplex(Complex):
    """The normalized (Moore) chain complex up to a degree cap, as a `Complex`.

    Its bases are `basis_kind` bases, each enumerated once, and its
    boundaries are built on them and checked for d^2 = 0 once.
    """

    basis_kind = MooreBasis
    name = "coarse chain complex"

    def __init__(self, space, max_degree=DEFAULT_MAX_DEGREE, domain=ZZ, cap=DEFAULT_TUPLE_CAP):
        self.space = space
        self.bases = [controlled_tuple_basis(space, n, cap, self.basis_kind)
                      for n in range(max_degree + 1)]
        super().__init__(
            [
                _boundary_on(n, self.bases[n], self.bases[n - 1] if n else [], domain)
                for n in range(max_degree + 1)
            ],
            self.name,
        )


class TupleChainComplex(CoarseChainComplex):
    """The unnormalized complex on every controlled tuple, degenerate ones included.

    Only the trace uses it: the chain-level t and front insertion do not
    descend to the Moore quotient, and phi . B is not zero on it.
    """

    basis_kind = OrbitBasis
    name = "tuple chain complex"


def chain_pushforward(f, c):
    """Pushforward along a space morphism, summing over preimage tuples."""
    rep = is_morphism(f)
    if not rep.ok:
        raise ValueError(f"chain pushforward needs a valid morphism: {rep.violations}")
    out = {}
    for tup, val in c.coefficients.items():
        target = tuple(f(x) for x in tup)
        out[target] = out.get(target, 0) + val
    return ControlledChain(f.target, c.degree, out, c.domain, check=False)


def pushforward_matrix(src, tgt, f, n):
    """Matrix of f_* in degree n from the complex `src` to `tgt`, on their bases.

    A simplicial map sends degenerate tuples to degenerate tuples, so f_*
    descends to the Moore complexes; both complexes must be of one kind.
    """
    if src.space is not f.source or tgt.space is not f.target:
        raise ValueError("map endpoints do not match the complexes' spaces")
    if src.basis_kind is not tgt.basis_kind or src.domain is not tgt.domain:
        raise ValueError("chain pushforward joins two complexes of one kind and domain")
    rep = is_morphism(f)
    if not rep.ok:
        raise ValueError(f"chain pushforward needs a valid morphism: {rep.violations}")
    one = src.domain.one
    return src.bases[n].matrix(tgt.bases[n], lambda tup: {tuple(map(f, tup)): one}, src.domain)
