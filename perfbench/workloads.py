"""The benchmark's workloads: fixed item lists with exact references.

An item is one homology profile (space, theory, coefficients, degree cap)
or one structural check.  `build(name, seed)` makes a workload's inputs and
returns its items; running an item returns the value its reference is
compared against.  Items call the library through `coarsehom.<name>` at
call time, so a traced run sees the same calls through its wrappers.

Only the exported `coarsehom` API is used.
"""

import random

import coarsehom as ch

WORKLOADS = ("nerve-s3", "ordinary-z", "trace-s3", "fuzz")

# The fuzz corpus is drawn from this seed, whatever seed the benchmark gets.
# fuzz_suite's cost differs by up to half between seeds (5.9 s to 9.1 s
# over seeds 0-5 on a 2-vCPU Xeon VM), which would swamp any change being
# measured; the benchmark seed only sets the order the checks run in.
FUZZ_CORPUS_SEED = 0
FUZZ_UNITS = 20
FUZZ_DEGREE = 3

# XHH / XHC of G_can_min(s3): three conjugacy classes in degree 0 (and in
# even degrees for XHC), 0 elsewhere.  The tests re-derive this rule.
NERVE_S3 = ([3, 0, 0, 0], [3, 0, 3, 0])

# XH(G_can_min(G); Z) = H_n(G; Z), as (betti, torsion) per degree.
ORDINARY_Z = {
    "z4": [(1, ()), (0, (4,)), (0, ()), (0, (4,)), (0, ()), (0, (4,))],
    "s3": [(1, ()), (0, (2,)), (0, ()), (0, (6,))],
}

TRACE_DEGREE = 4


class Item:
    """One unit of work: `run()` returns a value that must equal `reference`,
    or satisfy it when `reference` is a predicate."""

    def __init__(self, name, run, reference):
        self.name = name
        self.run = run
        self.reference = reference

    def accepts(self, value):
        if callable(self.reference):
            return bool(self.reference(value))
        return value == self.reference


def nerve_reference(group, max_degree):
    """(HH, HC) betti lists of G_can_min(group): k[G] has one class per
    conjugacy class in HH_0 and in every even HC degree."""
    k = len(group.conjugacy_classes())
    hh = [k if n == 0 else 0 for n in range(max_degree)]
    hc = [k if n % 2 == 0 else 0 for n in range(max_degree)]
    return hh, hc


def _space(group_name):
    return ch.g_can_min(ch.named_group(group_name))


def _nerve_items():
    space = _space("s3")
    return [
        Item(f"nerve_profiles s3 cap 4 over {dom.name}",
             lambda dom=dom: list(ch.nerve_profiles(space, 4, dom)), list(NERVE_S3))
        for dom in (ch.QQ, ch.GF(7))
    ]


def _ordinary_items():
    items = []
    for group_name, cap in (("z4", 6), ("s3", 4)):
        space = _space(group_name)
        items.append(Item(
            f"ordinary_profile {group_name} cap {cap} over Z",
            lambda space=space, cap=cap: [
                (h.betti, h.torsion) for h in ch.ordinary_profile(space, cap, ch.ZZ)
            ],
            ORDINARY_Z[group_name],
        ))
    return items


def _trace_items():
    """The checks of `coarsehom run --theory trace`, rebuilt from public API.

    The context is built by the first item and shared by the four checks
    that follow it in the same pass.
    """
    space = _space("s3")
    dom = ch.QQ
    top = TRACE_DEGREE
    state = {}

    def context():
        state["ctx"] = ch.TraceContext(space, dom, max_degree=top)
        return True

    def chain_map():
        ctx = state["ctx"]
        return [
            (ctx.phi_matrix(n - 1) @ ctx.mixed.b(n)
             - ctx.boundary_matrix(n) @ ctx.phi_matrix(n)).is_zero()
            for n in range(1, top + 1)
        ]

    def intertwine():
        ctx = state["ctx"]
        return [
            (ctx.phi_matrix(n + 1) @ ctx.mixed.B(n)
             - ch.xc_connes_operator(space, n, dom) @ ctx.phi_matrix(n)).is_zero()
            for n in range(top)
        ]

    def dennis():
        _, image = ch.dennis_trace_k0(state["ctx"], ch.generator(space, dom))
        return image.coefficients

    def b_image():
        ctx = state["ctx"]
        out = [(ctx.phi_matrix(n + 1) @ ctx.mixed.B(n)).is_zero() for n in range(top)]
        state.clear()
        return out

    return [
        Item("TraceContext s3 cap 4 over Q", context, True),
        Item("phi chain map per degree", chain_map, [True] * top),
        Item("phi B = xc_connes phi per degree", intertwine, [True] * top),
        Item("dennis_trace_k0 of the generator", dennis,
             {(x,): dom.one for x in range(space.n)}),
        Item("phi B image vanishes per degree", b_image, [False] * top),
    ]


def fuzz_items(fuzz_seed, units=FUZZ_UNITS, max_degree=FUZZ_DEGREE):
    """The checks of fuzz_suite(fuzz_seed, units, max_degree), in its order.

    The inputs are drawn here, in fuzz_suite's RNG order, so drawing them
    is set-up work.  Each item returns (name, ok, details) of one report,
    and its reference is that every report is ok.
    """
    rng = random.Random(fuzz_seed)
    items = []

    def report(name, check, *args):
        def run():
            r = getattr(ch, check)(*args)
            return name, r.ok, list(r.details)
        return Item(name, run, lambda rep: rep[1])

    for i in range(units):
        f = ch.random_equivalence(rng)
        items.append(report(f"invariance[{i}]", "check_coarse_invariance", f, max_degree))
        space, z, y = ch.random_complementary_pair(rng)
        items.append(report(f"excision[{i}]", "check_excision", space, z, y, max_degree))
        probe = ch.random_space(rng)
        for name, args in (
            ("morita", (probe, max_degree)),
            ("identity_suite", (probe, max_degree)),
            ("u_continuity", (probe,)),
            ("flasqueness", (probe,)),
        ):
            items.append(report(f"{name}[{i}]", f"check_{name}", *args))
    return items


def _fuzz_workload(seed):
    items = fuzz_items(FUZZ_CORPUS_SEED)
    random.Random(seed).shuffle(items)
    return items


def build(name, seed):
    """The items of workload `name`; only `fuzz` uses the seed."""
    if name == "nerve-s3":
        return _nerve_items()
    if name == "ordinary-z":
        return _ordinary_items()
    if name == "trace-s3":
        return _trace_items()
    if name == "fuzz":
        return _fuzz_workload(seed)
    raise ValueError(f"unknown workload {name!r}")
