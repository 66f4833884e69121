"""Space-level homology profiles: ordinary, Hochschild, and cyclic."""

from .chains import CoarseChainComplex
from .controlled import orbit_objects, require_nerve_admissible
from .cyclic import (
    additive_cyclic_nerve,
    hochschild_cyclic_betti,
    normalized_mixed_complex,
    to_mixed,
)
from .linalg import QQ, ZZ


def ordinary_profile(space, max_degree=3, domain=ZZ):
    """Coarse ordinary homology in degrees 0 .. max_degree - 1."""
    cx = CoarseChainComplex(space, max_degree, domain)
    return [cx.homology(n) for n in range(max_degree)]


def _nerve_objects(space, domain, objects):
    require_nerve_admissible(space, domain)
    return orbit_objects(space, domain) if objects is None else objects


def space_mixed_complex(space, max_degree=3, domain=QQ, objects=None):
    """The mixed complex of the full additive cyclic nerve on orbit-regular
    objects, with the cyclic module as its `source`: what needs t, the
    trace and the identity suite, and nothing else."""
    nerve = additive_cyclic_nerve(_nerve_objects(space, domain, objects), max_degree,
                                  domain=domain)
    return to_mixed(nerve)


def nerve_complex(space, max_degree=3, domain=QQ, objects=None):
    """The mixed complex of the normalized cyclic nerve on orbit-regular
    objects (`cyclic.normalized_mixed_complex`), with its bases: the one
    builder of a space's XHH and XHC complex.  Its HH and HC equal the
    full nerve's."""
    return normalized_mixed_complex(_nerve_objects(space, domain, objects), max_degree,
                                    domain=domain)


def nerve_profiles(space, max_degree=3, domain=QQ, objects=None):
    """(Hochschild, cyclic) betti lists of one normalized nerve build, HC
    derived from HH by `cyclic.hochschild_cyclic_betti`."""
    mixed = nerve_complex(space, max_degree, domain, objects)
    b_complex, big_b = mixed.b_complex, mixed.big_b
    del mixed  # its bases and nerve data go before any boundary is reduced
    return hochschild_cyclic_betti(b_complex, big_b)
