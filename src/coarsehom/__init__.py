"""Exact-arithmetic coarse homology of finite equivariant bornological
coarse spaces: ordinary, Hochschild, and cyclic theories plus the trace
maps relating them."""

from .axioms import (
    AxiomReport,
    all_partition_spaces,
    check_coarse_invariance,
    check_excision,
    check_flasqueness,
    check_group_algebra_agreement,
    check_identity_suite,
    check_morita,
    check_u_continuity,
    fuzz_suite,
    nerve_fits_budget,
    random_complementary_pair,
    random_equivalence,
    random_space,
)
from .bar_oracle import bar_complex, bar_hc, bar_hh
from .chains import (
    ControlledChain,
    CoarseChainComplex,
    TupleChainComplex,
    basis_chain,
    boundary_of_chain,
    chain_pushforward,
    controlled_tuple_basis,
    pushforward_matrix,
)
from .controlled import (
    ControlledMorphism,
    ControlledObject,
    FiniteAlgebra,
    HomSpace,
    compose,
    endomorphism_algebra,
    generator,
    identity_morphism,
    orbit_objects,
    orbit_regular_object,
    require_nerve_admissible,
)
from .cyclic import (
    CyclicModule,
    MixedComplex,
    TotComplex,
    additive_cyclic_nerve,
    to_mixed,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    named_group,
    named_subgroup,
    symmetric_group,
    trivial_group,
)
from .homology import nerve_complex, nerve_profiles, ordinary_profile, space_mixed_complex
from .linalg import (GF, QQ, ZZ, Complex, HomologyResult, InvariantError, Matrix, homology_at,
                     kernel_basis, rank, smith_normal_form)
from .spaces import (
    GBornCoarseSpace,
    SpaceMap,
    are_close,
    coset_space,
    empty_space,
    g_can_min,
    is_coarse_equivalence,
    is_complementary_pair,
    is_flasque,
    is_morphism,
    min_max_space,
    point_space,
    restrict_entourage,
    subspace,
    tensor,
    underlying,
)
from .trace import (
    TraceContext,
    dennis_trace_k0,
    nerve_pushforward_matrix,
    xc_connes_operator,
    xc_cyclic_operator,
)

__version__ = "0.1.0"
