"""Case tables of the dwsurf benchmark: workloads, pinned values and metrics.

Every ``compute_*`` case is one ``cross_check`` call, the function behind
``dw compute``, with the ``--method`` a user can afford today.  Its pinned
value is a closed form where one exists; otherwise it is the value that two
or three independent routes agree on.  A case fails when its report does not
pass, when any route's value differs from the pinned value, or when it raises.

This module imports nothing from the library, so that importing it costs no
set-up time.
"""

from __future__ import annotations

from typing import NamedTuple


class Case(NamedTuple):
    group: str      # group descriptor, as for ``dw compute --group``
    cocycle: str    # trivial | heisenberg:<n> | a name from sign_cocycles_catalog
    surface: str    # orientable:<g> | nonorientable:<k>
    method: str     # direct | statesum | verlinde | all
    expected: int   # pinned value of the invariant
    source: str     # where the pinned value comes from


TORUS = "torus: number of c-regular classes"
HEIS = "heisenberg:n at genus g: n^(2g-2)"

COMPUTE_LARGE = (
    Case("dihedral:64", "trivial", "nonorientable:3", "verlinde", 736, "direct = verlinde"),
    Case("product(cyclic:7,cyclic:7)", "heisenberg:7", "orientable:2", "verlinde", 49, HEIS),
    Case("product(symmetric:3,dihedral:8)", "trivial", "orientable:2", "verlinde", 22032,
         "direct = verlinde"),
    Case("product(cyclic:8,cyclic:8)", "heisenberg:8", "orientable:2", "direct", 64, HEIS),
    Case("product(symmetric:3,dihedral:8)", "trivial", "orientable:2", "direct", 22032,
         "direct = verlinde"),
    Case("dihedral:32", "trivial", "orientable:1", "all", 11, TORUS),
    Case("symmetric:5", "trivial", "orientable:1", "direct", 7, TORUS),
    Case("symmetric:5", "trivial", "orientable:1", "statesum", 7, TORUS),
)

COMPUTE_GENUS = (
    Case("symmetric:3", "trivial", "orientable:3", "all", 2673, "direct = statesum = verlinde"),
    Case("quaternion:8", "trivial", "orientable:3", "all", 16640, "direct = statesum = verlinde"),
    Case("dihedral:8", "trivial", "orientable:3", "all", 16640, "direct = statesum = verlinde"),
    Case("product(cyclic:3,cyclic:3)", "heisenberg:3", "orientable:3", "all", 81, HEIS),
    Case("dihedral:16", "trivial", "orientable:2", "all", 1216, "direct = statesum = verlinde"),
    Case("product(cyclic:4,cyclic:4)", "heisenberg:4", "orientable:2", "all", 16, HEIS),
    Case("quaternion:8", "q8:cup", "nonorientable:6", "all", 256, "direct = statesum = verlinde"),
    Case("dihedral:8", "d8:lift", "nonorientable:6", "all", 512, "direct = statesum = verlinde"),
    Case("cyclic:4", "z4:carry", "nonorientable:6", "all", 0, "direct = statesum = verlinde"),
)

# ``dw check`` arguments; the harness appends ``--seed <n>``.
CHECK_ALL_ARGV = ("check", "--suite", "all", "--json", "--workers", "1")

# The workloads, in the order of BENCHMARK.json, which says why each was chosen.
WORKLOADS = {
    "compute_large": {"cases": COMPUTE_LARGE},
    "compute_genus": {"cases": COMPUTE_GENUS},
    "check_all": {"argv": CHECK_ALL_ARGV},
}

# A small warm-up call made once per workload before timing; it is not counted.
WARMUP = Case("symmetric:3", "trivial", "orientable:1", "all", 3, TORUS)

# Documented inputs left out on purpose; each joins in its own benchmark change
# once the algebra layer (exact class-sum center) or the direct route (handle
# transfer operator) makes it feasible.
OMITTED = (
    ("symmetric:5 trivial orientable:2 --method verlinde",
     "68 s and 6.4 GB peak RSS on a 2-core, 7 GB machine: full SVD of the 14400x120 "
     "commutation system"),
    ("symmetric:5 trivial orientable:2 --method direct",
     "37 s: 120^3 generator tuples materialized"),
)

# End-to-end metrics, measured with tracing off: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("slowest_case_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics from the traced run: (name, unit, what it should move).
PER_LAYER = (
    ("groups.build_group.s", "s", "setup_s on every workload, most on compute_large"),
    ("cocycles.verify_cocycle.s", "s", "setup_s on every workload, most on compute_large"),
    ("cocycles.c_regular_count.s", "s", "check_all wall_s"),
    ("cocycles.twist.s", "s", "check_all wall_s"),
    ("algebra.center_basis.s", "s",
     "compute_large wall_s and slowest_case_s, check_all wall_s a little; "
     "no change on compute_genus"),
    ("algebra.center_basis.peak_alloc_mb", "MB", "compute_large peak_rss_mb"),
    ("algebra.wedderburn_decompose.self_s", "s", "compute_large wall_s and slowest_case_s"),
    ("algebra.fs_indicators.s", "s", "compute_large wall_s"),
    ("algebra.center_dim", "count", "compute_large wall_s and peak_rss_mb"),
    ("algebra.blocks", "count", "compute_large wall_s"),
    ("invariants.dw_direct.s", "s",
     "compute_large wall_s, check_all wall_s; compute_genus barely"),
    ("invariants.dw_direct.tuples", "count",
     "computed as the sum of n^generators, not counted; compute_large wall_s"),
    ("invariants.dw_direct.ns_per_tuple", "ns", "compute_large wall_s"),
    ("invariants.dw_direct.peak_alloc_mb", "MB", "compute_large peak_rss_mb"),
    ("state_sum.run_state_sum.self_s", "s", "compute_genus wall_s (planning, edge terms)"),
    ("state_sum.exact_contraction.s", "s",
     "compute_genus wall_s and slowest_case_s, part of check_all wall_s; "
     "no change on compute_large"),
    ("state_sum.states_visited", "count", "compute_genus wall_s"),
    ("state_sum.us_per_state", "us", "compute_genus wall_s"),
    ("state_sum.free_edges", "count", "compute_genus wall_s"),
    ("invariants.dw_labeling_oracle.s", "s", "check_all wall_s only"),
    ("invariants.dw_labeling_oracle.states", "count", "check_all wall_s only"),
    ("invariants.count_homs.s", "s", "check_all wall_s"),
    ("invariants.mednykh_count.s", "s", "check_all wall_s"),
    ("invariants.verlinde.s", "s", "check_all wall_s"),
    ("invariants.cross_check.self_s", "s", "check_all wall_s"),
    ("cli.cmd_check.self_s", "s", "check_all wall_s"),
    ("cli.checks", "count", "check_all wall_s"),
    ("cli.checks_failed", "count", "none: any value above 0 is a failure"),
    ("trace.wall_s", "s", "none: wall time of the traced repetition"),
    ("trace.unattributed_s", "s", "none: traced wall time that no span covers"),
    ("trace.overhead_s", "s", "none: traced wall minus untraced wall"),
)
