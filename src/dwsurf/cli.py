"""Command-line front end: compute single invariants, of a surface or of a
triangulation file, export decompositions, and run the validation suites.

`dw check` runs its rows in one run scope (memo.py), so each group,
decomposition, triangulation, plan and state sum is computed once per run;
the other commands, like library calls, keep no state between calls.

Exit codes: 0 pass, 1 computational failure or disagreement (or a standard
output closed by its reader, which gets nothing more), 2 usage error.
Every command is deterministic.  The one random input is `dw check --seed`
(default 0), which seeds the random.Random that draws the invariance suite's
coboundary twists and Pachner variants.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from .algebra import TwistedGroupAlgebra, decomposition_to_json, wedderburn_decompose
from .cocycles import TwoCocycle, parse_cocycle, twist
from .groups import build_group, conjugacy_classes, involution_set
from .invariants import (MAX_HOM_TUPLES, catalog_pairs, cross_check, boundary_hom_count,
                         boundary_hom_count_brute, dw_direct, dw_labeling_oracle, float_view,
                         mednykh_count, count_homs, nonorientable_catalog_pairs,
                         sign_catalog_pairs)
from .memo import run_scope
from .state_sum import run_state_sum
from .surfaces import (SurfaceSpec, flip_triangle, pachner_13, pachner_22, pachner_variants,
                       parse_surface, relator_presentation, seven_vertex_torus,
                       standard_triangulation, tetrahedron_sphere)


def _emit(data):
    print(json.dumps(data, sort_keys=True))


def cmd_compute(args) -> int:
    G = build_group(args.group)
    c = parse_cocycle(args.cocycle, G)
    methods = ("direct", "statesum", "verlinde") if args.method == "all" else (args.method,)
    report = cross_check(G, c, parse_surface(args.surface), methods=methods, oracle=args.oracle)
    if args.csv:
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["group", "cocycle", "surface", "method", "re", "im", "exact"])
        out.writerows([report.group, report.cocycle, report.surface, method,
                       *(float_view(v) or ("", "")), v]
                      for method, v in sorted(report.values.items()))
    else:
        _emit(report.to_json())
    return 0 if report.passed else 1


def cmd_decompose(args) -> int:
    G = build_group(args.group)
    c = parse_cocycle(args.cocycle, G)
    _emit(decomposition_to_json(wedderburn_decompose(TwistedGroupAlgebra(G, c))))
    return 0


# ---------------------------------------------------------------------------
# validation suites: every value is an exact Fraction, compared with ==

def _values_detail(report) -> str:
    return ", ".join(f"{method} {v}" for method, v in report.values.items())


# The class of Q8 as an extension of (Z/2)^2: one block, of dimension 2 and
# indicator -1, so every route gives -1/2, 1, -2 at 1, 2, 3 crosscaps.
Q8_OVER_V4 = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))


def _suite_theorems(seed: int) -> list:
    rows = []
    for G, c in catalog_pairs():
        for genus in range(0, 3):
            spec = SurfaceSpec(True, genus)
            rep = cross_check(G, c, spec)
            rows.append((f"orientable routes {G.name}/{c.name}/{spec.name}", rep.passed,
                         _values_detail(rep)))
        spec = SurfaceSpec(True, 3)
        rep = cross_check(G, c, spec, methods=("direct", "verlinde"))
        rows.append((f"orientable routes {G.name}/{c.name}/{spec.name}", rep.passed,
                     _values_detail(rep)))
    v4 = build_group("product(cyclic:2,cyclic:2)")
    for G, c in [*nonorientable_catalog_pairs(), (v4, TwoCocycle(v4, 2, Q8_OVER_V4, "q8-over-v4"))]:
        for genus in (1, 2, 3):
            spec = SurfaceSpec(False, genus)
            rep = cross_check(G, c, spec)
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
            if G.order ** pres.generators > MAX_HOM_TUPLES:
                continue
            formula = mednykh_count(G, spec)
            brute = count_homs(G, pres)
            rows.append((f"hom-count formula {G.name}/genus {genus}", formula == brute,
                         f"{formula} vs {brute}"))
    S3 = build_group("symmetric:3")
    for rep in conjugacy_classes(S3).representatives:
        formula = boundary_hom_count(S3, 1, (rep,))
        brute = boundary_hom_count_brute(S3, 1, (rep,))
        rows.append((f"boundary formula symmetric:3 g=1 class of {rep}", formula == brute,
                     f"{formula} vs {brute}"))
    Z2 = build_group("cyclic:2")
    formula = boundary_hom_count(Z2, 0, (1, 1))
    brute = boundary_hom_count_brute(Z2, 0, (1, 1))
    rows.append(("boundary formula cyclic:2 g=0 k=2", formula == brute, f"{formula} vs {brute}"))
    for G, c in sign_catalog_pairs():
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        lhs = sum(b.fs * b.dim for b in dec.blocks)
        inv_sum = sum(1 if c.exps[g, g] == 0 else -1 for g in involution_set(G))
        rows.append((f"indicator sum {G.name}/{c.name}", lhs == inv_sum, f"{lhs} vs {inv_sum}"))
    return rows


def _suite_invariance(seed: int) -> list:
    rng = random.Random(seed)
    rows = []
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    distinct = [sphere, *pachner_variants(sphere, 5, seed=seed)]   # distinct gluings
    for G, c in catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        ok = all(run_state_sum(A, tri).value == G.order for tri in distinct)
        rows.append((f"sphere refinement {G.name}/{c.name}", ok,
                     f"{len(distinct)} triangulations"))
    for G, c in catalog_pairs([("symmetric:3", "trivial"),
                               ("product(cyclic:2,cyclic:2)", "heisenberg:2")]):
        A = TwistedGroupAlgebra(G, c)
        for spec in (SurfaceSpec(True, 1), SurfaceSpec(True, 2)):
            tri = standard_triangulation(spec)
            base = run_state_sum(A, tri).value
            tri2 = pachner_13(tri, 0)
            flags = [f for f, p in tri2.edge_flags() if f // 3 != p // 3]
            tri2 = pachner_22(tri2, flags[0])
            val = run_state_sum(A, tri2).value
            rows.append((f"refined {spec.name} {G.name}/{c.name}", val == base, f"{val} vs {base}"))
    for G, c in catalog_pairs():
        base = dw_direct(G, c, SurfaceSpec(True, 1))
        ok = True
        for _ in range(20):
            b = [0] + [rng.randrange(12) for _ in range(G.order - 1)]
            ok = ok and dw_direct(G, twist(c, b, 12), SurfaceSpec(True, 1)) == base
        rows.append((f"coboundary direct {G.name}/{c.name}", ok, "torus, 20 random twists"))
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        for spec in (SurfaceSpec(False, 1), SurfaceSpec(False, 2)):
            tri = standard_triangulation(spec)
            base = run_state_sum(A, tri).value
            ok = all(run_state_sum(A, flip_triangle(tri, t)).value == base
                     for t in range(tri.n_triangles))
            rows.append((f"orientation flips {G.name}/{c.name}/{spec.name}", ok, str(base)))
    return rows


# Each suite takes the run's seed; only the invariance suite draws from it.
SUITES = {"theorems": _suite_theorems, "oracles": _suite_oracles, "invariance": _suite_invariance}


def _config_entries(path) -> list:
    """The entries of a --config file, a non-empty list of objects with string
    "group" and "surface" and an optional string "cocycle"; any other shape or
    key is rejected by entry index."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        raise ValueError("a --config file must hold a non-empty JSON list of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"config entry {i} must be an object, got {entry!r}")
        for key in entry:
            if key not in ("group", "surface", "cocycle"):
                raise ValueError(f"config entry {i} has an unknown key {key!r}")
        for key in ("group", "surface"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"config entry {i} needs a string {key!r}")
        if not isinstance(entry.get("cocycle", ""), str):
            raise ValueError(f"config entry {i}: 'cocycle' must be a string")
    return entries


def _check_rows(args) -> list:
    if args.config:
        rows = []
        for i, entry in enumerate(_config_entries(args.config)):
            cocycle = entry.get("cocycle", "trivial")
            try:
                G = build_group(entry["group"])
                c = parse_cocycle(cocycle, G)
                rep = cross_check(G, c, parse_surface(entry["surface"]))
            except (ValueError, OSError) as exc:
                raise ValueError(f"config entry {i} ({entry['group']}/{cocycle}/"
                                 f"{entry['surface']}): {type(exc).__name__}: {exc}") from exc
            rows.append((f"{G.name}/{c.name}/{rep.surface}", rep.passed, _values_detail(rep)))
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

    p = sub.add_parser("compute", help="evaluate one surface invariant")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", default="trivial")
    p.add_argument("--surface", required=True,
                   help="orientable:<g>, nonorientable:<k> or file:<triangulation.json>")
    p.add_argument("--method", choices=["direct", "statesum", "verlinde", "all"], default="all")
    p.add_argument("--oracle", action="store_true", help="also run the labeling-sum oracle")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("decompose", help="export the block decomposition as JSON")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", default="trivial")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="run validation suites")
    p.add_argument("--suite", choices=["theorems", "oracles", "invariance", "all"],
                   default="all")
    p.add_argument("--config", help="JSON file with explicit (group, cocycle, surface) entries")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0,
                   help="draws the invariance suite's twists and Pachner variants")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
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
    except BrokenPipeError:
        # the reader closed standard output: write nothing more to it, not
        # even the buffered rest that the interpreter flushes at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return 1


if __name__ == "__main__":
    sys.exit(main())
