"""Space-level homology profiles: ordinary, Hochschild, and cyclic."""

from .chains import CoarseChainComplex
from .controlled import orbit_objects, require_nerve_admissible
from .cyclic import additive_cyclic_nerve, hc, hh, to_mixed
from .linalg import QQ, ZZ


def ordinary_profile(space, max_degree=3, domain=ZZ):
    """Coarse ordinary homology in degrees 0 .. max_degree - 1."""
    cx = CoarseChainComplex(space, max_degree, domain)
    return [cx.homology(n) for n in range(max_degree)]


def space_mixed_complex(space, max_degree=3, domain=QQ, objects=None):
    """The mixed complex of the additive cyclic nerve on orbit-regular objects."""
    require_nerve_admissible(space, domain)
    if objects is None:
        objects = orbit_objects(space, domain)
    nerve = additive_cyclic_nerve(objects, max_degree, domain=domain)
    return to_mixed(nerve)


def nerve_profiles(space, max_degree=3, domain=QQ, objects=None):
    """(Hochschild, cyclic) betti lists sharing one nerve build."""
    mixed = space_mixed_complex(space, max_degree, domain, objects)
    return (
        [hh(mixed, n).betti for n in range(max_degree)],
        [hc(mixed, n).betti for n in range(max_degree)],
    )
