"""Per-module spans for the traced run, recorded from outside the library.

`Tracer.install()` wraps the public entry points listed in ENTRY_POINTS:
each module-level binding and each class attribute that holds one of them
is replaced by a wrapper, so calls between library modules are caught too.
`remove()` puts the originals back.  The untraced run never imports this
module.

A span's self time is its duration minus the time of the spans it
encloses.  Matrix products and sums are filed by the innermost enclosing
span: under an identity check, a mixed or total complex, a chain complex,
`homology_at` or an axiom check they are verification, anywhere else
assembly.  Products under phi are its block products: they are counted,
and their time stays in phi; so does the time of sums under phi.

An entry point that no longer exists is listed in `missing`, and every
metric built only from missing entry points reads as missing, not as 0.
"""

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import coarsehom

# (span, module, attribute) of every wrapped entry point.  Some spans
# gather several entry points; nested calls within one span are fine.
ENTRY_POINTS = (
    ("linalg.rank", "linalg", "rank"),
    ("linalg.snf", "linalg", "smith_normal_form"),
    ("linalg.kernel", "linalg", "kernel_data"),
    ("linalg.kernel", "linalg", "kernel_basis"),
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.add", "linalg", "Matrix.__add__"),
    ("linalg.homology_at", "linalg", "homology_at"),
    ("spaces.build", "spaces", "GBornCoarseSpace.__init__"),
    ("spaces.equivalence", "spaces", "is_coarse_equivalence"),
    ("spaces.morphism", "spaces", "is_morphism"),
    ("chains.basis", "chains", "controlled_tuple_basis"),
    ("chains.boundary", "chains", "boundary"),
    ("chains.boundary", "chains", "boundary_of_chain"),
    ("chains.pushforward", "chains", "pushforward_matrix"),
    ("chains.pushforward", "chains", "chain_pushforward"),
    ("chains.complex", "chains", "CoarseChainComplex.__init__"),
    ("controlled.homspace", "controlled", "HomSpace.__init__"),
    ("controlled.coordinates", "controlled", "HomSpace.coordinates"),
    ("cyclic.nerve_build", "cyclic", "additive_cyclic_nerve"),
    ("cyclic.identities", "cyclic", "CyclicModule.check_identities"),
    ("cyclic.to_mixed", "cyclic", "to_mixed"),
    ("cyclic.mixed_verify", "cyclic", "MixedComplex.__init__"),
    ("cyclic.tot", "cyclic", "TotComplex.__init__"),
    ("trace.phi", "trace", "TraceContext.phi_matrix"),
    ("trace.phi", "trace", "TraceContext.phi"),
    ("trace.connes", "trace", "xc_connes_operator"),
    ("trace.connes", "trace", "xc_cyclic_operator"),
    ("trace.nerve_pushforward", "trace", "nerve_pushforward_matrix"),
    ("axioms.check", "axioms", "check_coarse_invariance"),
    ("axioms.check", "axioms", "check_excision"),
    ("axioms.check", "axioms", "check_u_continuity"),
    ("axioms.check", "axioms", "check_morita"),
    ("axioms.check", "axioms", "check_identity_suite"),
    ("axioms.check", "axioms", "check_flasqueness"),
    ("axioms.budget", "axioms", "nerve_fits_budget"),
)

# Spans under which matrix products and sums are verification work.
VERIFY_SPANS = frozenset({
    "cyclic.identities", "cyclic.mixed_verify", "cyclic.tot", "chains.complex",
    "linalg.homology_at", "axioms.check",
})

# metric -> (the span it is measured in, the records it sums).  A metric
# ending in _s sums self times; any other reads one count.
METRICS = {
    "linalg.rank.Q_s": ("linalg.rank", ("linalg.rank.Q",)),
    "linalg.rank.Fp_s": ("linalg.rank", ("linalg.rank.Fp",)),
    "linalg.rank.Z_s": ("linalg.rank", ("linalg.rank.Z",)),
    "linalg.rank_calls": ("linalg.rank", ("linalg.rank_calls",)),
    "linalg.rank_nnz": ("linalg.rank", ("linalg.rank_nnz",)),
    "linalg.rank_cells_max": ("linalg.rank", ("linalg.rank_cells_max",)),
    "linalg.snf_s": ("linalg.snf", ("linalg.snf",)),
    "linalg.snf_calls": ("linalg.snf", ("linalg.snf_calls",)),
    "linalg.snf_nnz": ("linalg.snf", ("linalg.snf_nnz",)),
    "linalg.matmul.verify_s": ("linalg.matmul", ("linalg.matmul.verify", "linalg.matmul.recheck")),
    "linalg.homology_recheck_s": ("linalg.matmul", ("linalg.matmul.recheck",)),
    "linalg.matmul.assemble_s": ("linalg.matmul", ("linalg.matmul.assemble",)),
    "linalg.matmul_calls": ("linalg.matmul", ("linalg.matmul_calls",)),
    "linalg.add_s": ("linalg.add", ("linalg.add.verify", "linalg.add.assemble")),
    "linalg.kernel_s": ("linalg.kernel", ("linalg.kernel",)),
    "linalg.kernel_calls": ("linalg.kernel", ("linalg.kernel_calls",)),
    "cyclic.identities_s": ("cyclic.identities", ("cyclic.identities",)),
    "cyclic.mixed_verify_s": ("cyclic.mixed_verify", ("cyclic.mixed_verify",)),
    "cyclic.nerve_build_s": ("cyclic.nerve_build", ("cyclic.nerve_build",)),
    "cyclic.to_mixed_s": ("cyclic.to_mixed", ("cyclic.to_mixed",)),
    "cyclic.tot_s": ("cyclic.tot", ("cyclic.tot",)),
    "cyclic.nerve_dim": ("cyclic.nerve_build", ("cyclic.nerve_dim",)),
    "chains.basis_s": ("chains.basis", ("chains.basis",)),
    "chains.basis_calls": ("chains.basis", ("chains.basis_calls",)),
    "chains.tuples": ("chains.basis", ("chains.tuples",)),
    "chains.boundary_s": ("chains.boundary", ("chains.boundary",)),
    "chains.pushforward_s": ("chains.pushforward", ("chains.pushforward",)),
    "trace.phi_s": ("trace.phi", ("trace.phi",)),
    "trace.block_products": ("trace.phi", ("trace.block_products",)),
    "trace.connes_s": ("trace.connes", ("trace.connes",)),
    "trace.nerve_pushforward_s": ("trace.nerve_pushforward", ("trace.nerve_pushforward",)),
    "controlled.homspace_s": ("controlled.homspace", ("controlled.homspace",)),
    "controlled.homspace_calls": ("controlled.homspace", ("controlled.homspace_calls",)),
    "controlled.coordinates_s": ("controlled.coordinates", ("controlled.coordinates",)),
    "spaces.build_s": ("spaces.build", ("spaces.build",)),
    "spaces.equivalence_s": ("spaces.equivalence", ("spaces.equivalence",)),
    "spaces.morphism_s": ("spaces.morphism", ("spaces.morphism",)),
    "spaces.morphism_calls": ("spaces.morphism", ("spaces.morphism_calls",)),
    "axioms.check_s": ("axioms.check", ("axioms.check",)),
    "axioms.budget_calls": ("axioms.budget", ("axioms.budget_calls",)),
    "axioms.budget_accepts": ("axioms.budget", ("axioms.budget_accepts",)),
}

# ROADMAP's four layers, as sums of the self-time records above.
STAGES = {
    "stage.enumerate_s": ("chains.basis", "spaces.build", "spaces.equivalence",
                          "spaces.morphism"),
    "stage.assemble_s": ("linalg.matmul.assemble", "linalg.add.assemble", "chains.boundary",
                         "chains.pushforward", "cyclic.nerve_build", "cyclic.to_mixed",
                         "cyclic.tot", "trace.phi", "trace.connes", "trace.nerve_pushforward",
                         "controlled.homspace", "controlled.coordinates"),
    "stage.verify_s": ("linalg.matmul.verify", "linalg.matmul.recheck", "linalg.add.verify",
                       "cyclic.identities", "cyclic.mixed_verify", "axioms.check"),
    "stage.reduce_s": ("linalg.rank.Q", "linalg.rank.Fp", "linalg.rank.Z", "linalg.snf",
                       "linalg.kernel"),
}

# Count metrics: these must repeat exactly between runs of the same code.
COUNT_METRICS = tuple(name for name in METRICS if not name.endswith("_s"))


def _resolve(module, attribute):
    """(owner, name, function) of an entry point, or None if it is gone."""
    try:
        owner = importlib.import_module(f"coarsehom.{module}")
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if fn is None:
        return None
    return owner, name, fn


def _domain_key(matrix):
    name = matrix.domain.name
    return name if name in ("Q", "Z") else "Fp"


class Tracer:
    """Self times and counts per span, kept in memory for one traced run."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []  # open spans: [span, seconds spent in child spans]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _timed(self, span, key, fn, args, kwargs):
        stack = self._stack
        frame = [span, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.self_s[key] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def _enclosing(self):
        return self._stack[-1][0] if self._stack else None

    def _wrapper(self, span, fn):
        counts = self.counts
        timed = self._timed
        enclosing = self._enclosing

        if span in ("linalg.matmul", "linalg.add"):
            def wrapper(*args, **kwargs):
                outer = enclosing()
                if outer == "trace.phi":
                    if span == "linalg.matmul":
                        counts["trace.block_products"] += 1
                    return fn(*args, **kwargs)
                if span == "linalg.matmul":
                    counts["linalg.matmul_calls"] += 1
                    if outer == "linalg.homology_at":
                        return timed(span, "linalg.matmul.recheck", fn, args, kwargs)
                role = "verify" if outer in VERIFY_SPANS else "assemble"
                return timed(span, f"{span}.{role}", fn, args, kwargs)
        elif span == "linalg.rank":
            def wrapper(matrix, *args, **kwargs):
                counts["linalg.rank_calls"] += 1
                counts["linalg.rank_nnz"] += matrix.nnz
                cells = matrix.nrows * matrix.ncols
                if cells > counts["linalg.rank_cells_max"]:
                    counts["linalg.rank_cells_max"] = cells
                key = f"linalg.rank.{_domain_key(matrix)}"
                return timed(span, key, fn, (matrix,) + args, kwargs)
        elif span == "linalg.snf":
            def wrapper(matrix, *args, **kwargs):
                counts["linalg.snf_calls"] += 1
                counts["linalg.snf_nnz"] += matrix.nnz
                return timed(span, span, fn, (matrix,) + args, kwargs)
        elif span == "chains.basis":
            def wrapper(*args, **kwargs):
                counts["chains.basis_calls"] += 1
                out = timed(span, span, fn, args, kwargs)
                counts["chains.tuples"] += len(out)
                return out
        elif span == "cyclic.nerve_build":
            def wrapper(*args, **kwargs):
                out = timed(span, span, fn, args, kwargs)
                counts["cyclic.nerve_dim"] += sum(out.dims)
                return out
        elif span == "axioms.budget":
            def wrapper(*args, **kwargs):
                counts["axioms.budget_calls"] += 1
                out = timed(span, span, fn, args, kwargs)
                counts["axioms.budget_accepts"] += bool(out)
                return out
        else:
            calls = f"{span}_calls"

            def wrapper(*args, **kwargs):
                if enclosing() != span:
                    counts[calls] += 1
                return timed(span, span, fn, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [m for _, m in sorted(_library_modules().items())]
        for span, module, attribute in self.entry_points:
            found = _resolve(module, attribute)
            if found is None:
                self.missing.append(f"{module}.{attribute}")
                continue
            owner, name, fn = found
            wrapper = self._wrapper(span, fn)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            # rebind every module-level name that holds this function
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------------

    def metrics(self, traced_wall_s, untraced_pass_s, traced_pass_s):
        """Every per-layer metric: name -> value, or None when missing."""
        present = {span for span, module, attribute in self.entry_points
                   if f"{module}.{attribute}" not in self.missing}
        out = {}
        for name, (span, keys) in METRICS.items():
            if span not in present:
                out[name] = None
            elif name.endswith("_s"):
                out[name] = sum(self.self_s.get(k, 0.0) for k in keys)
            else:
                out[name] = self.counts.get(keys[0], 0)
        staged = 0.0
        for name, keys in STAGES.items():
            out[name] = sum(self.self_s.get(k, 0.0) for k in keys)
            staged += out[name]
        out["stage.other_s"] = traced_wall_s - staged
        out["tracing_overhead_frac"] = traced_pass_s / untraced_pass_s - 1.0
        return out


def _library_modules():
    """The package and its loaded submodules, by name."""
    prefix = coarsehom.__name__
    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    }
