"""Passes, repetitions and metrics of the dwsurf benchmark.

Importing this module imports numpy and dwsurf, so ``run.py`` imports it
inside the timed set-up.  Every case calls a public entry point: ``cross_check``
(what ``dw compute`` runs) or ``dwsurf.cli.main`` (what ``dw`` runs), always
with one worker, so no process pool starts.  Entry points are looked up on
their module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import dwsurf
import dwsurf.cli
import dwsurf.invariants

from cases import END_TO_END, PER_LAYER, WARMUP, Case
from tracing import AllocProbe, Tracer, layer_table

TOL = 1e-8   # relative, the same as cross_check's default


@dataclass
class Outcome:
    """One case run once: work attempted and failed, exact counts, error."""

    label: str
    seconds: float = 0.0
    attempted: int = 1
    failed: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None


def _cocycle(name: str, G):
    if name == "trivial" or name.startswith("heisenberg:"):
        return dwsurf.cli.parse_cocycle(name, G)
    matches = [c for c in dwsurf.sign_cocycles_catalog(G) if c.name == name]
    if not matches:
        raise ValueError(f"no cocycle {name!r} in the sign catalog of {G.name}")
    return matches[0]


def _verified(c):
    check = dwsurf.verify_cocycle(c)
    if not check.ok:
        raise ValueError(f"cocycle {c.name} failed verification: {check}")
    return c


class ComputeCase:
    """One ``dw compute`` call with a pinned expected value."""

    def __init__(self, case: Case):
        self.case = case
        self.label = f"{case.group} {case.cocycle} {case.surface} {case.method}"
        self.group = dwsurf.build_group(case.group)
        self.cocycle = _verified(_cocycle(case.cocycle, self.group))
        self.spec = dwsurf.SurfaceSpec.parse(case.surface)
        self.methods = (("direct", "statesum", "verlinde") if case.method == "all"
                        else (case.method,))

    def run(self, seed: int) -> Outcome:
        report = dwsurf.cross_check(self.group, self.cocycle, self.spec, methods=self.methods,
                                    seed=seed, workers=1)
        want = self.case.expected
        wrong = {k: v for k, v in report.values.items()
                 if abs(v - want) > TOL * max(1.0, abs(want))}
        error = None
        if wrong or not report.passed:
            error = (f"passed={report.passed}, expected {want} ({self.case.source}), "
                     f"got {report.values}")
        counts = {"states": report.states_visited,
                  "blocks": len(report.diagnostics.get("block_dims", ()))}
        return Outcome(self.label, failed=int(error is not None), counts=counts, error=error)


class CheckCase:
    """``dw check`` run in process with its JSON output captured; every row is
    one attempted case."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.label = " ".join(self.argv)
        # the catalogs the suites draw on, built and verified like the compute cases
        for pairs in (dwsurf.invariants.catalog_pairs(),
                      dwsurf.invariants.nonorientable_catalog_pairs(),
                      dwsurf.invariants.sign_catalog_pairs()):
            for _, c in pairs:
                _verified(c)

    def run(self, seed: int) -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dwsurf.cli.main([*self.argv, "--seed", str(seed)])
        rows = json.loads(out.getvalue())["rows"]
        failed = [r["name"] for r in rows if not r["passed"]]
        error = f"exit {code}, failed rows {failed}" if code or failed else None
        return Outcome(self.label, attempted=len(rows), failed=len(failed),
                       counts={"checks": len(rows), "checks_failed": len(failed)}, error=error)


def build(workload: dict) -> list:
    """The workload's cases: groups, cocycles (verified), surfaces and catalogs."""
    cases = [ComputeCase(c) for c in workload.get("cases", ())]
    if "argv" in workload:
        cases.append(CheckCase(workload["argv"]))
    return cases


def run_case(case, seed: int) -> Outcome:
    """Run and time one case; an exception is a failed case, and the run goes on."""
    gc.collect()
    start = time.perf_counter()
    try:
        outcome = case.run(seed)
    except Exception as exc:  # noqa: BLE001 - recorded and counted as a failure
        outcome = Outcome(case.label, failed=1, error=f"{type(exc).__name__}: {exc}")
    outcome.seconds = time.perf_counter() - start
    return outcome


def run_pass(cases: list, seed: int, tracer: Tracer | None = None) -> list:
    outcomes = []
    for case in cases:
        if tracer is not None:
            tracer.case = case.label
        outcomes.append(run_case(case, seed))
    return outcomes


def warm_up(seed: int) -> None:
    """One untimed call through the compute path, before any timing."""
    run_case(ComputeCase(WARMUP), seed)


def _repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, and again while one more call
    is expected, from the median so far, to end within ``seconds``."""
    results, durations = [], []
    deadline = time.perf_counter() + seconds
    while (len(results) < minimum
           or time.perf_counter() + statistics.median(durations) <= deadline):
        start = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - start)
    return results


def _signature(outcomes: list) -> list:
    return [(o.label, sorted(o.counts.items())) for o in outcomes]


@dataclass
class Run:
    """What one benchmark process measured, before it is turned into metrics."""

    metrics: dict
    outcomes: list            # every case run, across passes and repetitions
    problems: list            # exact-count mismatches: harness bugs, not noise
    details: dict

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def result(self) -> dict:
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}


def _metric_dict(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec}


def run_untraced(cases: list, seed: int, seconds: float, min_passes: int,
                 setup_samples: list) -> Run:
    """Passes over the case list for about ``seconds``, and at least
    ``min_passes``; every end-to-end metric is a median over them."""
    warm_up(seed)
    passes = _repeat(lambda: run_pass(cases, seed), seconds, min_passes)
    walls = [sum(o.seconds for o in p) for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "slowest_case_s": statistics.median(max(o.seconds for o in p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    problems = []
    if any(_signature(p) != _signature(passes[0]) for p in passes):
        problems.append("exact counts differ between untraced passes")
    details = {"passes": len(passes), "pass_walls_s": walls,
               "setup_samples_s": setup_samples}
    return Run(_metric_dict(values, END_TO_END), [o for p in passes for o in p],
               problems, details)


def _repetition(workload: dict, seed: int, tracer: Tracer | None = None):
    """Set-up plus one pass; returns (wall seconds, outcomes, spans).

    The wall time leaves out the ``gc.collect`` before each case, as the spans do.
    """
    if tracer is not None:
        tracer.spans, tracer.case = [], "setup"
    start = time.perf_counter()
    cases = build(workload)
    setup = time.perf_counter() - start
    outcomes = run_pass(cases, seed, tracer)
    wall = setup + sum(o.seconds for o in outcomes)
    return wall, outcomes, (tracer.spans if tracer is not None else [])


# per-layer count metrics: the span whose summed work count they report
COUNTS = {
    "algebra.center_dim": "algebra.center_basis",
    "algebra.blocks": "algebra.wedderburn_decompose",
    "invariants.dw_direct.tuples": "invariants.dw_direct",
    "state_sum.states_visited": "state_sum.exact_contraction",
    "state_sum.free_edges": "state_sum.run_state_sum",
    "invariants.dw_labeling_oracle.states": "invariants.exact_contraction",
}


def _layer_values(table: dict, outcomes: list, peaks: dict) -> dict:
    layers = table["layers"]

    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    values = {}
    for name, _, _ in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key in ("s", "self_s"):
            values[name] = float(get(span, key))
    for name, span in COUNTS.items():
        values[name] = get(span, "count")
    direct_s, tuples = get("invariants.dw_direct", "s"), values["invariants.dw_direct.tuples"]
    values["invariants.dw_direct.ns_per_tuple"] = direct_s / tuples * 1e9 if tuples else 0.0
    contraction_s = get("state_sum.exact_contraction", "s")
    states = values["state_sum.states_visited"]
    values["state_sum.us_per_state"] = contraction_s / states * 1e6 if states else 0.0
    values["algebra.center_basis.peak_alloc_mb"] = peaks["algebra.center_basis"]
    values["invariants.dw_direct.peak_alloc_mb"] = peaks["invariants.dw_direct"]
    values["cli.checks"] = sum(o.counts.get("checks", 0) for o in outcomes)
    values["cli.checks_failed"] = sum(o.counts.get("checks_failed", 0) for o in outcomes)
    values["trace.unattributed_s"] = table["unattributed"]
    return values


def _exact_counts(table: dict) -> dict:
    return {name: table["layers"].get(span, {}).get("count", 0) for name, span in COUNTS.items()}


def run_traced(workload: dict, seed: int, seconds: float) -> Run:
    """Pairs of untraced and traced repetitions for about ``seconds``, at
    least one, then one allocation pass.

    Per-layer values come from the traced repetition of median wall time, so
    its self times plus ``trace.unattributed_s`` add up to its ``trace.wall_s``.
    """
    warm_up(seed)
    tracer = Tracer()

    def pair():
        plain = _repetition(workload, seed)
        tracer.install()
        try:
            return plain, _repetition(workload, seed, tracer)
        finally:
            tracer.uninstall()

    pairs = _repeat(pair, seconds, 1)
    untraced, traced = [p[0] for p in pairs], [p[1] for p in pairs]
    probe = AllocProbe()
    probe.install()
    try:
        _, alloc_outcomes, _ = _repetition(workload, seed)
    finally:
        probe.uninstall()

    tables = [layer_table(spans, wall) for wall, _, spans in traced]
    problems = []
    signatures = [_signature(o) for _, o, _ in untraced + traced] + [_signature(alloc_outcomes)]
    if any(s != signatures[0] for s in signatures):
        problems.append("exact counts differ between repetitions")
    exact = [_exact_counts(t) for t in tables]
    if any(e != exact[0] for e in exact):
        problems.append(f"traced exact counts differ between repetitions: {exact}")
    if "argv" not in workload:   # every state sum and decomposition runs inside a report
        outcomes = traced[0][1]
        public = {"state_sum.states_visited": sum(o.counts.get("states") or 0 for o in outcomes),
                  "algebra.blocks": sum(o.counts.get("blocks", 0) for o in outcomes)}
        if any(exact[0][k] != v for k, v in public.items()):
            problems.append(f"traced counts {exact[0]} differ from the reports' {public}")

    order = sorted(range(len(traced)), key=lambda i: traced[i][0])
    median_rep = order[(len(order) - 1) // 2]
    wall, outcomes, _ = traced[median_rep]
    values = _layer_values(tables[median_rep], outcomes, probe.peaks)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                                  - statistics.median(w for w, _, _ in untraced))
    details = {
        "repetitions": len(traced),
        "traced_walls_s": [w for w, _, _ in traced],
        "untraced_walls_s": [w for w, _, _ in untraced],
        "absent_layers": sorted(tracer.absent),
        "uncounted_layers": sorted(tracer.uncounted),
        "layers": tables[median_rep]["layers"],
        "spans": [[(s.name, s.start, s.end, s.parent, s.case, s.count) for s in sp]
                  for _, _, sp in traced],
    }
    all_outcomes = [o for _, out, _ in untraced + traced for o in out] + alloc_outcomes
    return Run(_metric_dict(values, PER_LAYER), all_outcomes, problems, details)
