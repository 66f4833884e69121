"""Finite groups as element label lists with explicit multiplication tables.

A group is its Cayley table over element indices; associativity, identity
and inverses are checked eagerly at construction, so downstream code can
trust the table blindly.  Group elements are referred to by index
everywhere; the labels exist only for display and serialization.
"""

from __future__ import annotations

from itertools import permutations


class FiniteGroup:
    def __init__(self, elements, table):
        self.elements = list(elements)
        n = len(self.elements)
        if n == 0:
            raise ValueError("a group needs at least the identity")
        if len(set(map(str, self.elements))) != n:
            raise ValueError("duplicate element labels")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("multiplication table must be |G| x |G|")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError(f"table entry {v!r} is not a valid element index")
        self.table = [list(row) for row in table]

        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element in table")
        self.identity = identity

        self._inverse = [None] * n
        for g in range(n):
            for h in range(n):
                if self.table[g][h] == identity and self.table[h][g] == identity:
                    self._inverse[g] = h
                    break
            if self._inverse[g] is None:
                raise ValueError(f"element {self.elements[g]!r} has no inverse")

        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("multiplication table is not associative")

    def __len__(self):
        return len(self.elements)

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self._inverse[g]

    def label(self, g):
        return self.elements[g]

    def conjugacy_classes(self):
        """Partition of element indices into conjugacy classes, sorted."""
        seen = set()
        classes = []
        for g in range(len(self)):
            if g in seen:
                continue
            cls = {self.mul(self.mul(h, g), self.inv(h)) for h in range(len(self))}
            seen |= cls
            classes.append(tuple(sorted(cls)))
        return sorted(classes)

    def is_subgroup(self, indices):
        s = set(indices)
        if self.identity not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def left_cosets(self, subgroup):
        """Left cosets gH as sorted tuples, ordered by least member."""
        if not self.is_subgroup(subgroup):
            raise ValueError("not a subgroup")
        sub = sorted(set(subgroup))
        seen = set()
        cosets = []
        for g in range(len(self)):
            if g in seen:
                continue
            coset = tuple(sorted(self.mul(g, h) for h in sub))
            seen |= set(coset)
            cosets.append(coset)
        return sorted(cosets)

    def element_order(self, g):
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    def __repr__(self):
        return f"<FiniteGroup of order {len(self)}>"


def trivial_group():
    return FiniteGroup(["e"], [[0]])


def cyclic_group(n):
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    labels = [f"r{k}" if k else "e" for k in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(labels, table)


def symmetric_group(n):
    """S_n on {0, .., n-1}; elements are one-line permutation strings.

    Composition convention: (p * q)(x) = p(q(x)), i.e. the left factor acts
    after the right one.
    """
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    labels = ["".join(str(v) for v in p) for p in perms]
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    return FiniteGroup(labels, table)


_NAMED = {
    "1": trivial_group,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "s3": lambda: symmetric_group(3),
}


def named_group(name):
    """Resolve a group name used by the CLI builtins (1, z2, z3, z4, s3)."""
    key = name.strip().lower()
    if key not in _NAMED:
        raise KeyError(f"unknown group name {name!r}; known: {sorted(_NAMED)}")
    return _NAMED[key]()


def named_subgroup(group, name):
    """A canonical subgroup of `group` matching an order spelled as a name.

    The choice is deterministic: among all subgroups whose order equals the
    named group's order, take the one whose sorted index tuple is smallest.
    Only orders up to 6 ever occur here, so brute force over subsets is fine.
    """
    target = len(named_group(name))
    n = len(group)
    if target > n or n % target:
        raise ValueError(f"no subgroup of order {target} in a group of order {n}")
    best = None
    for mask in range(1 << n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        if len(idx) != target:
            continue
        if group.is_subgroup(idx) and (best is None or idx < best):
            best = idx
    if best is None:
        raise ValueError(f"no subgroup of order {target} found")
    return best
