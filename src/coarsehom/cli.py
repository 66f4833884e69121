"""Command line entry point.

Subcommands:
  run       compute a homology profile or run the structural check suites
  describe  print the parsed structure of a space

Spaces are either JSON files or builtins (@point, @gcanmin:<group>,
@gmodh:<group>/<subgroup>).  Exit codes: 0 success, 1 a check failed,
2 malformed input or an unsupported request, 3 an internal identity
failed (a bug, reported by name).
"""

import argparse
import json
import sys

from .axioms import (
    check_flasqueness,
    check_identity_suite,
    check_morita,
    check_u_continuity,
    fuzz_suite,
)
from .controlled import generator, require_nerve_admissible
from .groups import FiniteGroup, named_group, named_subgroup
from .homology import nerve_profiles, ordinary_profile
from .linalg import GF, QQ, ZZ, InvariantError
from .spaces import (GBornCoarseSpace, coset_space, g_can_min, is_flasque, point_space,
                     underlying)
from .trace import TraceContext, dennis_trace_k0, xc_connes_operator


class InputError(Exception):
    def __init__(self, path, message):
        super().__init__(message)
        self.path = path
        self.message = message


def _need(cond, path, message):
    if not cond:
        raise InputError(path, message)


def _space_from_json(doc):
    _need(isinstance(doc, dict), "", "top-level value must be an object")
    allowed = {"points", "entourage_generators", "bornology_generators", "group", "action"}
    for key in doc:
        _need(key in allowed, key, "unknown field")
    for key in ("points", "entourage_generators", "group", "action"):
        _need(key in doc, key, "missing required field")

    points = doc["points"]
    _need(isinstance(points, list), "points", "must be a list of labels")
    for i, p in enumerate(points):
        _need(isinstance(p, (str, int)), f"points[{i}]", "labels must be strings or integers")

    grp = doc["group"]
    _need(isinstance(grp, dict), "group", "must be an object with elements and table")
    for key in grp:
        _need(key in {"elements", "table"}, f"group.{key}", "unknown field")
    for key in ("elements", "table"):
        _need(key in grp, f"group.{key}", "missing required field")
    _need(isinstance(grp["elements"], list), "group.elements", "must be a list")
    table = grp["table"]
    _need(isinstance(table, list), "group.table", "must be a list of rows")
    for gi, row in enumerate(table):
        _need(isinstance(row, list), f"group.table[{gi}]", "must be a list")
        for gj, v in enumerate(row):
            _need(isinstance(v, int), f"group.table[{gi}][{gj}]", "must be an element index")
    try:
        group = FiniteGroup(grp["elements"], table)
    except ValueError as e:
        raise InputError("group", str(e))

    action = doc["action"]
    _need(isinstance(action, list), "action", "must be a list of rows")
    _need(len(action) == len(group), "action", f"needs one row per group element ({len(group)})")
    for gi, row in enumerate(action):
        _need(isinstance(row, list), f"action[{gi}]", "must be a list")
        _need(len(row) == len(points), f"action[{gi}]", f"needs one entry per point ({len(points)})")
        for xi, v in enumerate(row):
            _need(isinstance(v, int) and 0 <= v < len(points), f"action[{gi}][{xi}]",
                  "must be a point index")

    gens = doc["entourage_generators"]
    _need(isinstance(gens, list), "entourage_generators", "must be a list of pairs")
    for i, pair in enumerate(gens):
        _need(isinstance(pair, list) and len(pair) == 2, f"entourage_generators[{i}]",
              "must be a two-element list")

    borno = doc.get("bornology_generators")
    if borno is not None:
        _need(isinstance(borno, list), "bornology_generators", "must be a list of lists")
        for i, gen in enumerate(borno):
            _need(isinstance(gen, list), f"bornology_generators[{i}]", "must be a list")

    try:
        return GBornCoarseSpace(points, [tuple(p) for p in gens], group, action, borno)
    except ValueError as e:
        raise InputError("space", str(e))


def load_space(token):
    if token.startswith("@"):
        if token == "@point":
            return point_space()
        if token.startswith("@gcanmin:"):
            try:
                return g_can_min(named_group(token[len("@gcanmin:"):]))
            except KeyError as e:
                raise InputError("space", str(e))
        if token.startswith("@gmodh:"):
            rest = token[len("@gmodh:"):]
            if rest.count("/") != 1:
                raise InputError("space", "builtin @gmodh needs <group>/<subgroup>")
            gname, hname = rest.split("/")
            try:
                group = named_group(gname)
                sub = named_subgroup(group, hname)
            except (KeyError, ValueError) as e:
                raise InputError("space", str(e))
            return coset_space(group, sub)
        raise InputError("space", f"unknown builtin {token!r}")
    try:
        with open(token) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError("space", f"cannot read {token!r}: {e}")
    except json.JSONDecodeError as e:
        raise InputError("space", f"invalid JSON: {e}")
    return _space_from_json(doc)


def _parse_coeff(text, theory):
    key = text.strip()
    if key == "Q":
        return QQ, "Q"
    if key == "Z":
        if theory not in (None, "ordinary"):
            raise InputError("--coeff", "Z coefficients only make sense with --theory ordinary")
        return ZZ, "Z"
    if key.startswith("Fp:"):
        try:
            p = int(key[3:])
        except ValueError:
            raise InputError("--coeff", f"cannot parse prime in {text!r}")
        try:
            return GF(p), f"Fp:{p}"
        except ValueError as e:
            raise InputError("--coeff", str(e))
    raise InputError("--coeff", f"unknown coefficient field {text!r} (use Q, Z, or Fp:<prime>)")


def _space_summary(space, token):
    return {
        "source": token,
        "points": [str(p) for p in space.points],
        "group_order": len(space.group),
        "orbits": len(space.orbits()),
        "components": len(space.components()),
    }


def _run_ordinary(space, max_degree, domain):
    rows = []
    for h in ordinary_profile(space, max_degree, domain):
        rows.append({"degree": h.degree, "betti": h.betti, "torsion": list(h.torsion)})
    return rows


def _run_trace(space, max_degree, domain):
    ctx = TraceContext(space, domain, max_degree=max_degree)
    chain_map = []
    for n in range(1, max_degree + 1):
        left = ctx.phi_matrix(n - 1) @ ctx.mixed.b(n)
        right = ctx.boundary_matrix(n) @ ctx.phi_matrix(n)
        chain_map.append((left - right).is_zero())
    intertwine = []
    b_vanishes = []
    for n in range(max_degree):
        image = ctx.phi_matrix(n + 1) @ ctx.mixed.B(n)
        chain_side = xc_connes_operator(space, n, domain) @ ctx.phi_matrix(n)
        intertwine.append((image - chain_side).is_zero())
        b_vanishes.append(image.is_zero())
    section = None
    if space.n == 1 and len(space.group) == 1:
        section = []
        for n in range(max_degree + 1):
            out = ctx.phi(n, ctx.iota(n, 1))
            section.append(out.coefficients == {(0,) * (n + 1): domain.one})
    try:
        dennis_trace_k0(ctx, generator(space, domain))
        dennis = True
    except InvariantError:
        raise
    except ValueError:
        dennis = False
    ok = all(chain_map) and all(intertwine) and dennis and (section is None or all(section))
    return {
        "chain_map": chain_map,
        "connes_intertwine": intertwine,
        "b_image_vanishes": b_vanishes,
        "section": section,
        "dennis": dennis,
        "ok": ok,
    }


def _run_axioms(space, max_degree, seed, budget):
    reports = []
    try:
        require_nerve_admissible(space, QQ)
        nerve_ok = True
    except ValueError:
        nerve_ok = False
    if nerve_ok:
        reports.append(check_identity_suite(space, min(max_degree, 3)))
        reports.append(check_morita(space, min(max_degree, 3)))
    reports.append(check_u_continuity(space))
    reports.append(check_flasqueness(space))
    reports += fuzz_suite(seed=seed, budget=budget, max_degree=min(max_degree, 3))
    rows = [{"name": r.name, "ok": r.ok, "details": list(r.details)} for r in reports]
    if not nerve_ok:
        rows.insert(0, {"name": "nerve_checks", "ok": True,
                        "details": ["skipped: needs a free action and characteristic prime to |G|"]})
    return rows


def _emit(args, lines, doc):
    if args.format == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_describe(args):
    space = load_space(args.space)
    doc = _space_summary(space, args.space)
    doc["entourage_generators"] = sorted(
        [str(space.label(a)), str(space.label(b))] for a, b in space.entourage_generators
    )
    doc["bounded_generators"] = len(space.bornology_generators)
    doc["flasque"] = is_flasque(space)
    doc["orbit_members"] = [[str(space.label(x)) for x in orb] for orb in space.orbits()]
    lines = [
        f"space {args.space}: {space.n} points, group order {len(space.group)}",
        f"orbits: {doc['orbits']}  components: {doc['components']}",
        f"entourage generators: {doc['entourage_generators']}",
        f"flasque: {doc['flasque']}",
    ]
    _emit(args, lines, doc)
    return 0


def _cmd_run(args):
    theory = args.theory
    domain, coeff_name = _parse_coeff(args.coeff, theory if theory != "all" else "nerve")
    if args.max_degree < 0:
        raise InputError("--max-degree", f"must be at least 0, got {args.max_degree}")
    space = load_space(args.space)
    doc = {
        "space": _space_summary(space, args.space),
        "theory": theory,
        "coeff": coeff_name,
        "max_degree": args.max_degree,
        "invariant": args.invariant,
        "results": {},
    }
    lines = [f"theory {theory} on {args.space} over {coeff_name}, degrees < {args.max_degree}"]
    failed = False
    try:
        if theory in ("ordinary", "all"):
            rows = _run_ordinary(space if args.invariant else underlying(space),
                                 args.max_degree, domain)
            doc["results"]["ordinary"] = rows
            for r in rows:
                lines.append(f"XH_{r['degree']}: betti {r['betti']} torsion {tuple(r['torsion'])}")
        if theory in ("hochschild", "cyclic", "all"):
            hh_p, hc_p = nerve_profiles(space, args.max_degree, domain)
            if theory in ("hochschild", "all"):
                doc["results"]["hochschild"] = [
                    {"degree": n, "betti": b} for n, b in enumerate(hh_p)
                ]
                lines += [f"XHH_{n}: {b}" for n, b in enumerate(hh_p)]
            if theory in ("cyclic", "all"):
                doc["results"]["cyclic"] = [
                    {"degree": n, "betti": b} for n, b in enumerate(hc_p)
                ]
                lines += [f"XHC_{n}: {b}" for n, b in enumerate(hc_p)]
        if theory in ("trace", "all"):
            res = _run_trace(space, args.max_degree, domain)
            doc["results"]["trace"] = res
            lines.append(f"phi chain map: {'pass' if all(res['chain_map']) else 'FAIL'}")
            lines.append(
                f"phi B intertwine: {'pass' if all(res['connes_intertwine']) else 'FAIL'}"
            )
            lines.append(f"phi image of B vanishes by degree: {res['b_image_vanishes']}")
            if res["section"] is not None:
                lines.append(f"section over the point: {'pass' if all(res['section']) else 'FAIL'}")
            lines.append(f"dennis trace of the big object: {'pass' if res['dennis'] else 'FAIL'}")
            failed = failed or not res["ok"]
        if theory == "axioms":
            rows = _run_axioms(space, args.max_degree, args.seed, args.budget)
            doc["results"]["axioms"] = rows
            for r in rows:
                mark = "pass" if r["ok"] else "FAIL"
                tail = f" ({'; '.join(r['details'])})" if r["details"] else ""
                lines.append(f"{r['name']}: {mark}{tail}")
            failed = failed or any(not r["ok"] for r in rows)
    except InvariantError:
        raise
    except ValueError as e:
        raise InputError("space", str(e))
    doc["ok"] = not failed
    lines.append("result: FAIL" if failed else "result: ok")
    _emit(args, lines, doc)
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coarsehom",
        description="equivariant coarse homology of finite bornological coarse spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute homology or run check suites")
    run.add_argument("space", help="JSON file or builtin (@point, @gcanmin:z2, @gmodh:s3/z3)")
    run.add_argument("--theory", default="hochschild",
                     choices=["ordinary", "hochschild", "cyclic", "trace", "axioms", "all"])
    run.add_argument("--coeff", default="Q", help="Q, Z, or Fp:<prime> (Z only for ordinary)")
    run.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    run.add_argument("--invariant", action=argparse.BooleanOptionalAction, default=True,
                     help="ordinary theory: the invariant complex (default), or with "
                          "--no-invariant XH of the underlying space, the group forgotten")
    run.add_argument("--seed", type=int, default=0, help="fuzz seed (axioms)")
    run.add_argument("--budget", type=int, default=5, help="fuzz iterations (axioms)")
    run.add_argument("--format", default="text", choices=["text", "json"])
    run.add_argument("--out", default=None, help="write the report here instead of stdout")

    desc = sub.add_parser("describe", help="print the parsed structure of a space")
    desc.add_argument("space")
    desc.add_argument("--format", default="text", choices=["text", "json"])
    desc.add_argument("--out", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            return _cmd_describe(args)
        return _cmd_run(args)
    except InputError as e:
        where = f" at {e.path}" if e.path else ""
        print(f"error{where}: {e.message}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
