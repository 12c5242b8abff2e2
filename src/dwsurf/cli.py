"""Command-line front end: compute single invariants, contract state sums,
export decompositions, and run the validation suites.

`dw check` runs its rows in one run scope (memo.py), so each group,
decomposition, class list, triangulation and plan is computed once per run;
the other commands, like library calls, keep no state between calls.

Exit codes: 0 pass, 1 computational failure or disagreement, 2 usage error.
All randomness flows from --seed (default 0, overridable via DW_SEED).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .algebra import TwistedGroupAlgebra, decomposition_to_json, fs_indicators, wedderburn_decompose
from .cocycles import (RootOfUnity, TwoCocycle, heisenberg_cocycle, read_cocycle_file,
                       trivial_cocycle, twist)
from .groups import FiniteGroup, build_group, conjugacy_classes, involution_set
from .invariants import (catalog_pairs, cross_check, boundary_hom_count,
                         boundary_hom_count_brute, dw_direct, dw_labeling_oracle,
                         mednykh_count, count_homs, nonorientable_catalog_pairs,
                         sign_catalog_pairs)
from .memo import run_scope
from .state_sum import fhk_state_sum, run_state_sum, star_state_sum
from .surfaces import (GluedTriangulation, SurfaceSpec, flip_triangle, pachner_13, pachner_22,
                       pachner_variants, relator_presentation, seven_vertex_torus,
                       standard_triangulation, tetrahedron_sphere)


def parse_cocycle(spec: str, G: FiniteGroup) -> TwoCocycle:
    """trivial | heisenberg:<n> | file:<path>"""
    s = spec.strip()
    if s == "trivial":
        return trivial_cocycle(G)
    if s.startswith("heisenberg:"):
        try:
            n = int(s.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad numeric argument in cocycle descriptor {spec!r}") from None
        c = heisenberg_cocycle(n)
        if c.group != G:
            raise ValueError(f"cocycle {s} lives on {c.group.name}, not on {G.name}")
        return TwoCocycle(G, c.order, c.exps, c.name)
    if s.startswith("file:"):
        return read_cocycle_file(s.split(":", 1)[1], G)
    raise ValueError(f"cannot parse cocycle descriptor {spec!r}")


def _default_seed() -> int:
    return int(os.environ.get("DW_SEED", "0"))


def _emit(data, as_json=True):
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(data)


def cmd_compute(args) -> int:
    G = build_group(args.group)
    c = parse_cocycle(args.cocycle, G)
    spec = SurfaceSpec.parse(args.surface)
    methods = ("direct", "statesum", "verlinde") if args.method == "all" else (args.method,)
    report = cross_check(G, c, spec, methods=methods, oracle=args.oracle, seed=args.seed)
    if args.csv:
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["group", "cocycle", "surface", "method", "re", "im", "exact"])
        out.writerows([report.group, report.cocycle, report.surface, method, repr(float(v)), "0.0", v]
                      for method, v in sorted(report.values.items()))
    else:
        _emit(report.to_json())
    check_requested = len(report.values) > 1 or report.integrality is not None
    return 0 if (report.passed or not check_requested) else 1


def cmd_statesum(args) -> int:
    G = build_group(args.group)
    c = parse_cocycle(args.cocycle, G)
    spec = SurfaceSpec.parse(args.surface)
    if args.tri == "standard":
        tri = standard_triangulation(spec)
    elif args.tri.startswith("file:"):
        with open(args.tri.split(":", 1)[1], encoding="utf-8") as fh:
            tri = GluedTriangulation.from_json(json.load(fh))
    else:
        raise ValueError(f"cannot parse --tri {args.tri!r}")
    A = TwistedGroupAlgebra(G, c)
    res = run_state_sum(A, tri, star=not spec.orientable)
    _emit({"value": [float(res.value), 0.0],
           "exact": str(res.value),
           "states_visited": res.states_visited,
           "plan": res.plan.to_json()})
    return 0


def cmd_decompose(args) -> int:
    G = build_group(args.group)
    c = parse_cocycle(args.cocycle, G)
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, c), args.seed)
    if c.is_sign_valued:
        dec = fs_indicators(dec)
    _emit(decomposition_to_json(dec))
    return 0


# ---------------------------------------------------------------------------
# validation suites: every value is an exact Fraction, compared with ==

def _values_detail(report) -> str:
    return ", ".join(f"{method} {v}" for method, v in report.values.items())


def _suite_theorems(seed: int) -> list:
    rows = []
    for G, c in catalog_pairs():
        for genus in range(0, 3):
            spec = SurfaceSpec(True, genus)
            rep = cross_check(G, c, spec, seed=seed)
            rows.append((f"orientable routes {G.name}/{c.name}/{spec.name}", rep.passed,
                         _values_detail(rep)))
        spec = SurfaceSpec(True, 3)
        rep = cross_check(G, c, spec, methods=("direct", "verlinde"), seed=seed)
        rows.append((f"orientable routes {G.name}/{c.name}/{spec.name}", rep.passed,
                     _values_detail(rep)))
    for G, c in nonorientable_catalog_pairs():
        for genus in (1, 2, 3):
            spec = SurfaceSpec(False, genus)
            rep = cross_check(G, c, spec, seed=seed)
            rows.append((f"nonorientable routes {G.name}/{c.name}/{spec.name}", rep.passed,
                         _values_detail(rep)))
    return rows


def _suite_oracles(seed: int) -> list:
    rows = []
    oracle_pairs = [("cyclic:2", "trivial"), ("cyclic:3", "trivial"),
                    ("product(cyclic:2,cyclic:2)", "heisenberg:2")]
    for G, c in catalog_pairs(oracle_pairs):
        for surf, spec in ((tetrahedron_sphere(), SurfaceSpec(True, 0)),
                           (seven_vertex_torus(), SurfaceSpec(True, 1))):
            got = dw_labeling_oracle(G, c, surf)
            want = dw_direct(G, c, spec)
            rows.append((f"labeling oracle {G.name}/{c.name} chi={surf.euler_characteristic}",
                         got == want, f"{got} vs {want}"))
    for G, c in catalog_pairs():
        for genus in (1, 2, 3):
            spec = SurfaceSpec(True, genus)
            pres = relator_presentation(spec)
            if G.order ** pres.generators > 10 ** 8:
                continue
            formula = mednykh_count(G, spec, seed=seed)
            brute = count_homs(G, pres)
            rows.append((f"hom-count formula {G.name}/genus {genus}", formula == brute,
                         f"{formula} vs {brute}"))
    S3 = build_group("symmetric:3")
    for rep in conjugacy_classes(S3).representatives:
        formula = boundary_hom_count(S3, 1, (rep,), seed=seed)
        brute = boundary_hom_count_brute(S3, 1, (rep,))
        rows.append((f"boundary formula symmetric:3 g=1 class of {rep}", formula == brute,
                     f"{formula} vs {brute}"))
    Z2 = build_group("cyclic:2")
    formula = boundary_hom_count(Z2, 0, (1, 1), seed=seed)
    brute = boundary_hom_count_brute(Z2, 0, (1, 1))
    rows.append(("boundary formula cyclic:2 g=0 k=2", formula == brute, f"{formula} vs {brute}"))
    for G, c in sign_catalog_pairs():
        dec = fs_indicators(wedderburn_decompose(TwistedGroupAlgebra(G, c), seed))
        lhs = sum(b.fs * b.dim for b in dec.blocks)
        inv_sum = sum(1 if c.exps[g, g] == 0 else -1 for g in involution_set(G))
        rows.append((f"indicator sum {G.name}/{c.name}", lhs == inv_sum, f"{lhs} vs {inv_sum}"))
    return rows


def _suite_invariance(seed: int) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    variants = pachner_variants(sphere, 5, seed=seed)
    for G, c in catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        ok = all(fhk_state_sum(A, tri) == G.order for tri in [sphere, *variants])
        rows.append((f"sphere refinement {G.name}/{c.name}", ok, "6 triangulations"))
    for G, c in catalog_pairs([("symmetric:3", "trivial"),
                               ("product(cyclic:2,cyclic:2)", "heisenberg:2")]):
        A = TwistedGroupAlgebra(G, c)
        for spec in (SurfaceSpec(True, 1), SurfaceSpec(True, 2)):
            tri = standard_triangulation(spec)
            base = fhk_state_sum(A, tri)
            tri2 = pachner_13(tri, 0)
            flags = [f for f, p in tri2.edge_flags() if f // 3 != p // 3]
            tri2 = pachner_22(tri2, flags[0])
            val = fhk_state_sum(A, tri2)
            rows.append((f"refined {spec.name} {G.name}/{c.name}", val == base, f"{val} vs {base}"))
    for G, c in catalog_pairs():
        base = dw_direct(G, c, SurfaceSpec(True, 1))
        ok = True
        for _ in range(20):
            b = [RootOfUnity(0, 1)] + [RootOfUnity(int(rng.integers(12)), 12)
                                       for _ in range(G.order - 1)]
            ok = ok and dw_direct(G, twist(c, b), SurfaceSpec(True, 1)) == base
        rows.append((f"coboundary direct {G.name}/{c.name}", ok, "torus, 20 random twists"))
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        for spec in (SurfaceSpec(False, 1), SurfaceSpec(False, 2)):
            tri = standard_triangulation(spec)
            base = star_state_sum(A, tri)
            ok = all(star_state_sum(A, flip_triangle(tri, t)) == base
                     for t in range(tri.n_triangles))
            rows.append((f"orientation flips {G.name}/{c.name}/{spec.name}", ok, str(base)))
    return rows


SUITES = {"theorems": _suite_theorems, "oracles": _suite_oracles, "invariance": _suite_invariance}


def _config_entries(path) -> list:
    """The entries of a --config file, each an object with string "group" and
    "surface", an optional string "cocycle" and an optional integer "seed";
    any other shape or key is rejected by entry index."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError("a --config file must hold a JSON list of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"config entry {i} must be an object, got {entry!r}")
        for key in entry:
            if key not in ("group", "surface", "cocycle", "seed"):
                raise ValueError(f"config entry {i} has an unknown key {key!r}")
        for key in ("group", "surface"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"config entry {i} needs a string {key!r}")
        if not isinstance(entry.get("cocycle", ""), str):
            raise ValueError(f"config entry {i}: 'cocycle' must be a string")
        if type(entry.get("seed", 0)) is not int:
            raise ValueError(f"config entry {i}: 'seed' must be an integer")
    return entries


def _check_rows(args) -> list:
    if args.config:
        rows = []
        for entry in _config_entries(args.config):
            G = build_group(entry["group"])
            c = parse_cocycle(entry.get("cocycle", "trivial"), G)
            spec = SurfaceSpec.parse(entry["surface"])
            rep = cross_check(G, c, spec, seed=entry.get("seed", args.seed))
            rows.append((f"{G.name}/{c.name}/{spec.name}", rep.passed, _values_detail(rep)))
        return rows
    names = list(SUITES) if args.suite == "all" else [args.suite]
    return [row for name in names for row in SUITES[name](args.seed)]


def cmd_check(args) -> int:
    with run_scope():
        rows = _check_rows(args)
    if args.json:
        _emit({"rows": [{"name": n, "passed": p, "detail": d} for n, p, d in rows],
               "passed": all(p for _, p, _ in rows)})
    else:
        width = max(len(n) for n, _, _ in rows)
        for name, passed, detail in rows:
            print(f"{'PASS' if passed else 'FAIL'}  {name:<{width}}  {detail}")
        print(f"{sum(p for _, p, _ in rows)}/{len(rows)} checks passed")
    return 0 if all(p for _, p, _ in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=_default_seed())

    def worker_flag(p):
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("compute", help="evaluate one surface invariant")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", default="trivial")
    p.add_argument("--surface", required=True)
    p.add_argument("--method", choices=["direct", "statesum", "verlinde", "all"], default="all")
    p.add_argument("--oracle", action="store_true", help="also run the labeling-sum oracle")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument("--csv", action="store_true")
    common(p)
    worker_flag(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("statesum", help="contract a state sum over a triangulation")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", default="trivial")
    p.add_argument("--surface", required=True)
    p.add_argument("--tri", default="standard")
    common(p)
    p.set_defaults(func=cmd_statesum)

    p = sub.add_parser("decompose", help="export the block decomposition as JSON")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", default="trivial")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="run validation suites")
    p.add_argument("--suite", choices=["theorems", "oracles", "invariance", "all"],
                   default="all")
    p.add_argument("--config", help="JSON file with explicit (group, cocycle, surface) entries")
    p.add_argument("--json", action="store_true")
    common(p)
    worker_flag(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return 1


if __name__ == "__main__":
    sys.exit(main())
