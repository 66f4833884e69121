"""Coarse ordinary chains: controlled tuples, boundary, homology.

Degree n chains are functions on (n+1)-tuples of points whose coordinates
all lie in one coarse component (that is exactly u_star-control on finite
carriers).  The invariant complex uses one basis vector per G-orbit of
tuples, equal to the sum of the orbit's indicator chains; this is a basis
of the invariant chains over any coefficient ring, including Z.

The boundary deletes coordinates with alternating signs.
`CoarseChainComplex` is a `linalg.Complex`: it enumerates each basis once,
builds every boundary from those, and checks d^2 = 0 once.  Its homology
over Z is reduce-then-SNF (betti plus torsion), and over a field a rank
computation; either way each boundary is reduced once.
"""

from __future__ import annotations

from itertools import product

from .linalg import ZZ, Complex, InvariantError, Matrix, homology_at
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
        if self.space is not other.space or self.degree != other.degree:
            raise ValueError("chain sum needs matching space and degree")
        out = dict(self.coefficients)
        for tup, val in other.coefficients.items():
            w = self.domain.add(out.get(tup, self.domain.zero), val)
            if w == self.domain.zero:
                out.pop(tup, None)
            else:
                out[tup] = w
        return ControlledChain(self.space, self.degree, out, self.domain, check=False)

    def scale(self, c):
        c = self.domain.coerce(c)
        out = {t: self.domain.mul(c, v) for t, v in self.coefficients.items()}
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


def _plain_tuples(space, n, cap):
    out = []
    for tup in product(range(space.n), repeat=n + 1):
        first = tup[0]
        if all(space.related(first, x) for x in tup[1:]):
            out.append(tup)
            if len(out) > cap:
                raise ValueError(f"more than {cap} controlled tuples in degree {n}")
    return out


def _orbit_rep(space, tup):
    return min(tuple(space.act(g, x) for x in tup) for g in range(len(space.group)))


def _tuple_orbit(space, tup):
    return {tuple(space.act(g, x) for x in tup) for g in range(len(space.group))}


def controlled_tuple_basis(space, n, invariant=True, cap=DEFAULT_TUPLE_CAP):
    """Ordered degree-n basis: plain tuples, or orbit representatives.

    In the invariant case each representative stands for the sum of its
    orbit's indicator chains.
    """
    plain = _plain_tuples(space, n, cap)
    if not invariant:
        return plain
    reps = sorted({_orbit_rep(space, tup) for tup in plain})
    return reps


def basis_chain(space, tup, domain, invariant=True):
    """The chain a basis element stands for (orbit sum when invariant)."""
    if invariant:
        coeffs = {t: domain.one for t in _tuple_orbit(space, tup)}
    else:
        coeffs = {tuple(tup): domain.one}
    return ControlledChain(space, len(tup) - 1, coeffs, domain, check=False)


def _collect_on_orbits(space, plain_coeffs, reps_index, domain):
    """Rewrite an invariant plain chain in orbit-sum coordinates."""
    col = {}
    seen = set()
    for tup in plain_coeffs:
        rep = _orbit_rep(space, tup)
        if rep in seen:
            continue
        seen.add(rep)
        vals = {plain_coeffs.get(member, domain.zero) for member in _tuple_orbit(space, rep)}
        if len(vals) != 1:
            raise InvariantError("an invariant chain is constant on orbits", len(rep) - 1)
        v = vals.pop()
        if v != domain.zero:
            col[reps_index[rep]] = v
    return col


def _boundary_of_tuple(tup, domain):
    """Plain boundary coefficients of one indicator chain."""
    out = {}
    sign_pos = True
    for i in range(len(tup)):
        face = tup[:i] + tup[i + 1 :]
        delta = domain.one if sign_pos else domain.neg(domain.one)
        w = domain.add(out.get(face, domain.zero), delta)
        if w == domain.zero:
            out.pop(face, None)
        else:
            out[face] = w
        sign_pos = not sign_pos
    return out


def _boundary_on(space, n, basis_n, basis_prev, invariant, domain):
    """Boundary matrix from degree n to n - 1 on bases already enumerated."""
    if n == 0:
        return Matrix(0, len(basis_n), domain)
    index_prev = {t: i for i, t in enumerate(basis_prev)}
    cols = []
    for tup in basis_n:
        if invariant:
            plain = {}
            for member in _tuple_orbit(space, tup):
                for face, val in _boundary_of_tuple(member, domain).items():
                    w = domain.add(plain.get(face, domain.zero), val)
                    if w == domain.zero:
                        plain.pop(face, None)
                    else:
                        plain[face] = w
            cols.append(_collect_on_orbits(space, plain, index_prev, domain))
        else:
            cols.append(
                {index_prev[f]: v for f, v in _boundary_of_tuple(tup, domain).items()}
            )
    return Matrix.from_columns(cols, len(basis_prev), domain)


def boundary(space, n, invariant=True, domain=ZZ, cap=DEFAULT_TUPLE_CAP):
    """Matrix of the alternating face sum from degree n to degree n - 1."""
    basis_n = controlled_tuple_basis(space, n, invariant, cap)
    basis_prev = controlled_tuple_basis(space, n - 1, invariant, cap) if n else []
    return _boundary_on(space, n, basis_n, basis_prev, invariant, domain)


def boundary_of_chain(c):
    """The boundary of a chain, degree n >= 1."""
    if c.degree == 0:
        raise ValueError("no boundary below degree 0")
    dom = c.domain
    out = {}
    for tup, val in c.coefficients.items():
        for face, delta in _boundary_of_tuple(tup, dom).items():
            w = dom.add(out.get(face, dom.zero), dom.mul(val, delta))
            if w == dom.zero:
                out.pop(face, None)
            else:
                out[face] = w
    return ControlledChain(c.space, c.degree - 1, out, dom, check=False)


class CoarseChainComplex(Complex):
    """Bases and boundary matrices up to a degree cap, as a `Complex`."""

    def __init__(self, space, max_degree=DEFAULT_MAX_DEGREE, domain=ZZ, invariant=True,
                 cap=DEFAULT_TUPLE_CAP):
        self.space = space
        self.invariant = invariant
        self.bases = [
            controlled_tuple_basis(space, n, invariant, cap) for n in range(max_degree + 1)
        ]
        super().__init__(
            [
                _boundary_on(space, n, self.bases[n], self.bases[n - 1] if n else [],
                             invariant, domain)
                for n in range(max_degree + 1)
            ],
            "coarse chain complex",
        )


def xh(space, n, domain=ZZ, invariant=True, max_degree=DEFAULT_MAX_DEGREE,
       cap=DEFAULT_TUPLE_CAP):
    """Coarse ordinary homology at degree n (Z by default, or a field)."""
    if not (0 <= n <= max_degree - 1):
        raise ValueError(f"degree {n} out of range (need n + 1 <= {max_degree})")
    d_out = boundary(space, n, invariant, domain, cap)
    d_in = boundary(space, n + 1, invariant, domain, cap)
    return homology_at(d_out, d_in, degree=n)


def chain_pushforward(f, c):
    """Pushforward along a space morphism, summing over preimage tuples."""
    rep = is_morphism(f)
    if not rep.ok:
        raise ValueError(f"chain pushforward needs a valid morphism: {rep.violations}")
    dom = c.domain
    out = {}
    for tup, val in c.coefficients.items():
        target = tuple(f(x) for x in tup)
        w = dom.add(out.get(target, dom.zero), val)
        if w == dom.zero:
            out.pop(target, None)
        else:
            out[target] = w
    return ControlledChain(f.target, c.degree, out, dom, check=False)


def pushforward_matrix(f, n, domain=ZZ, invariant=True, cap=DEFAULT_TUPLE_CAP):
    """Matrix of the degree-n pushforward in the chosen bases."""
    rep = is_morphism(f)
    if not rep.ok:
        raise ValueError(f"chain pushforward needs a valid morphism: {rep.violations}")
    src = controlled_tuple_basis(f.source, n, invariant, cap)
    tgt = controlled_tuple_basis(f.target, n, invariant, cap)
    index = {t: i for i, t in enumerate(tgt)}
    cols = []
    for tup in src:
        if invariant:
            plain = {}
            for member in _tuple_orbit(f.source, tup):
                target = tuple(f(x) for x in member)
                w = domain.add(plain.get(target, domain.zero), domain.one)
                if w == domain.zero:
                    plain.pop(target, None)
                else:
                    plain[target] = w
            cols.append(_collect_on_orbits(f.target, plain, index, domain))
        else:
            cols.append({index[tuple(f(x) for x in tup)]: domain.one})
    return Matrix.from_columns(cols, len(tgt), domain)
