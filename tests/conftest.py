import pytest

from coarsehom.cyclic import MixedComplex, to_mixed


def _sign_flipped_mixed(module):
    """The mixed complex of `module` with an extra (-1)^(n+1) on B_n.

    That tempting sign convention breaks bB + Bb = 0, so building it raises
    the named `InvariantError`; tests use it to see a failed identity reported.
    """
    good = to_mixed(module)
    big = [good.B(n).scale(-1) if n % 2 == 0 else good.B(n) for n in range(good.max_degree)]
    return MixedComplex(good.max_degree, good.domain, good.dims, good.b_complex.d, big,
                        source=module)


@pytest.fixture
def sign_flipped_mixed():
    return _sign_flipped_mixed
