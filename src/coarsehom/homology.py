"""Space-level homology profiles: ordinary, Hochschild, and cyclic."""

from .chains import CoarseChainComplex
from .controlled import orbit_objects, require_nerve_admissible
from .cyclic import additive_cyclic_nerve, hc, hh, normalized_mixed_complex, to_mixed
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
    objects, with the cyclic module as its `source`: what the trace, the
    nerve pushforward and the identity suite need."""
    nerve = additive_cyclic_nerve(_nerve_objects(space, domain, objects), max_degree,
                                  domain=domain)
    return to_mixed(nerve)


def nerve_profiles(space, max_degree=3, domain=QQ, objects=None):
    """(Hochschild, cyclic) betti lists of one normalized nerve build.

    The homology is that of the normalized cyclic nerve
    (`cyclic.normalized_mixed_complex`), which equals that of the full one;
    the full nerve is never built.
    """
    mixed = normalized_mixed_complex(_nerve_objects(space, domain, objects), max_degree,
                                     domain=domain)
    return (
        [hh(mixed, n).betti for n in range(max_degree)],
        [hc(mixed, n).betti for n in range(max_degree)],
    )
