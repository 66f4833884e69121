import pytest

from coarsehom.controlled import ControlledObject
from coarsehom.cyclic import MixedComplex, normalized_mixed_complex, to_mixed
from coarsehom.linalg import Matrix


def direct_sum(a, b):
    """a + b over their common space: fibers a(x) + b(x), rho block diagonal."""
    if a.space is not b.space or a.domain is not b.domain:
        raise ValueError("direct sum needs a common space and domain")
    dims = [da + db for da, db in zip(a.dims, b.dims)]
    rho = [[Matrix.block([[a.rho_block(g, x), None], [None, b.rho_block(g, x)]], a.domain)
            for x in range(a.space.n)] for g in range(len(a.space.group))]
    return ControlledObject(a.space, dims, rho, a.domain, check=False)


def _sign_flipped(good):
    """The mixed complex `good` with an extra (-1)^(n+1) on B_n.

    That tempting sign convention breaks bB + Bb = 0, so building it raises
    the named `InvariantError`; tests use it to see a failed identity reported.
    """
    big = [good.B(n).scale(-1) if n % 2 == 0 else good.B(n) for n in range(good.max_degree)]
    return MixedComplex(good.b_complex.d, big, good.basis, source=good.source)


@pytest.fixture
def sign_flipped_mixed():
    """`to_mixed` of a cyclic module, with the flipped sign."""
    return lambda module: _sign_flipped(to_mixed(module))


@pytest.fixture
def sign_flipped_normalized():
    """`normalized_mixed_complex`, with the flipped sign."""
    return lambda *args, **kwargs: _sign_flipped(normalized_mixed_complex(*args, **kwargs))
