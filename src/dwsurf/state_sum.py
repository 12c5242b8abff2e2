"""State sums on glued triangulations, contracted exactly by a frontier table.

For a twisted group algebra the pairing vector is supported on g (x) g^-1, so
an edge never carries a dense tensor index: it carries a single group element,
and a triangle's trace factor vanishes unless the boundary product is the
identity.  The contraction is therefore variable elimination over edge labels
along a fixed plan: a table keyed by the labels of the open (frontier) edges
and the exponent so far, where a triangle with two labeled edges forces the
third and an edge leaves the table once its triangles are complete.  Every
admissible labeling contributes a root of unity, read off one exponent table
per triangle that also holds the weights of its edges, and accumulated as an
exact int64 exponent histogram, which reduces modulo the cyclotomic
polynomial to an exact integer.  This engine involves no floating point.

The sum is gauge-fixed, as lattice gauge theory fixes the maximal-tree gauge
(Creutz, Quarks, Gluons and Lattices, 1983): on a closed surface the weight
of a labeling is constant on the orbits of the gauge group G^V, which acts
at the vertices, and each orbit holds #G^(V - 1) times as many labelings as
it holds with the edges of a spanning tree labeled by the identity.  So the
tree's edges come first in the plan as fixed steps, and the value is the
integer times #G^(triangles - edges) * #G^(V - 1) = #G^(chi - 1), a
Fraction.  Every gauge-fixed plan has at least 2 - chi free edges, the
standard fans exactly that, and extra vertices no longer bring free edges of
their own.

The triangulation decides which state sum applies.  An orientable one is
oriented coherently first, and its edges all carry the pairing vector.  A
non-orientable one keeps the orientation of each triangle as given, and an
edge where two orientations agree carries the pairing vector twisted by the
involution g* = c(g, g^-1) g^-1, which needs a sign-valued cocycle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AlgebraError, TwistedGroupAlgebra
from .cocycles import cyclotomic_integer
from .memo import cocycle_key, shared
from .surfaces import GluedTriangulation

# Rows a free edge may expand the contraction table to.  A row is a few
# machine words, so this stays well under 1 GB.  The largest table on a
# standard triangulation is 864000 rows, symmetric:5 at every genus.
MAX_TABLE_ROWS = 2 ** 22


class ContractionError(ValueError):
    """A contraction whose exact counts or table size would exceed the engine's bounds."""


# The forcing entry of a fixed step: an edge of the gauge tree, labeled with
# the identity.  A string, so that no reader can take it for a (term, slot).
FIXED = "fixed"


@dataclass(frozen=True)
class ContractionPlan:
    """Static edge-processing order and the schedule both engines read.

    ``steps[i]`` belongs to edge ``order[i]``, fixed by the terms' edges
    alone: the (term, slot) that forces it, FIXED when it is a tree edge of
    the gauge, or None when it is free; the terms it completes; and the
    edges that then leave the frontier.  An edge is forced when, with all
    earlier edges labeled, some term holding it once has its other two edges
    labeled.
    """

    order: tuple
    steps: tuple = field(repr=False)

    @property
    def kinds(self) -> tuple:
        return tuple("free" if forcing is None else "fixed" if forcing == FIXED else "forced"
                     for forcing, _, _ in self.steps)

    @property
    def free_count(self) -> int:
        return sum(forcing is None for forcing, _, _ in self.steps)

    def estimate_nodes(self, domain_size: int) -> int:
        """Upper bound on the table rows a contraction generates for a given
        group order, and on the partial labelings the labeling oracle's
        enumeration generates (its exact count on a simplicial surface)."""
        total, width = 0, 1
        for kind in self.kinds:
            width *= domain_size if kind == "free" else 1
            total += width
        return total

    def to_json(self) -> dict:
        return {"order": list(self.order), "kinds": list(self.kinds),
                "free_edges": self.free_count}


@dataclass(frozen=True)
class StateSumResult:
    value: Fraction
    states_visited: int  # contraction table rows generated
    counts: np.ndarray   # histogram of root-of-unity exponents
    modulus: int
    plan: ContractionPlan


@dataclass(frozen=True)
class TriangleTerm:
    """One trilinear factor of the contraction, the form both engines read.

    The slot labels l_0, l_1, l_2 are edge variables, optionally inverted; the
    factor vanishes unless l_0 l_1 l_2 = 1, and otherwise contributes
    exp2[l_0, l_1] to the exponent sum, its whole weight: l_2 = (l_0 l_1)^-1.
    """

    vars: tuple        # three edge-variable indices
    inverted: tuple    # per slot: label is the inverse of the variable
    exp2: np.ndarray   # exponent by the labels of slots 0 and 1


def plan_from_terms(n_vars: int, term_vars, fixed=()) -> ContractionPlan:
    """Greedy deterministic order over the terms' edge-variable triples: the
    fixed edges first, in the order given, then the last edge of the lowest
    term with two labeled slots (forced) when there is one, else the lowest
    edge of a term with one, else the lowest edge.  One heap makes the plan
    and its schedule in O((E + T) log(E + T))."""
    terms_of = [[] for _ in range(n_vars)]     # one entry per slot
    for ti, edges in enumerate(term_vars):
        for v in edges:
            terms_of[v].append(ti)
    filled = [0] * len(term_vars)
    open_slots = [len(ts) for ts in terms_of]   # per edge, slots of incomplete terms
    done = [False] * n_vars
    # (0, term) once it has two labeled slots, (1, edge) of a term with one,
    # (2, edge) for every edge; the least live entry is the pick
    heap = [(2, v) for v in range(n_vars)]

    def picks():
        for v in fixed:
            yield v, FIXED
        while heap:
            rank, x = heapq.heappop(heap)
            if rank == 0 and filled[x] == 2:
                pick = next(v for v in term_vars[x] if not done[v])
                yield pick, (x, term_vars[x].index(pick))
            elif rank and not done[x]:
                yield x, None

    order, steps = [], []
    for pick, forcing in picks():
        done[pick] = True
        order.append(pick)
        closing = []
        leaving = [] if open_slots[pick] else [pick]   # an edge in no term leaves at once
        for ti in terms_of[pick]:
            filled[ti] += 1
            if filled[ti] == 1:
                for v in term_vars[ti]:
                    heapq.heappush(heap, (1, v))
            elif filled[ti] == 2:
                heapq.heappush(heap, (0, ti))
            elif filled[ti] == 3:
                closing.append(ti)
                for v in term_vars[ti]:
                    open_slots[v] -= 1
                    if not open_slots[v]:
                        leaving.append(v)
        steps.append((forcing, tuple(closing), tuple(leaving)))
    return ContractionPlan(tuple(order), tuple(steps))


def exact_contraction(group, modulus: int, n_vars: int, terms, plan):
    """Frontier dynamic program over the plan's edge order.

    The table holds one row per (labels of the open frontier edges, exponent
    mod modulus), with an int64 multiplicity.  A fixed edge is the identity
    in every row.  A free edge repeats every row #G times; a forced edge is
    one gather from the Cayley and inverse tables.  A completed triangle
    filters rows by its boundary product and adds its exp2 entry; the
    forcing triangle holds by construction, so it only adds.  An edge whose
    triangles are all complete leaves the frontier at once, and rows with
    equal keys merge just before a free edge repeats the table, so the
    table a free edge repeats has distinct keys; the final histogram sums
    the rest.  The plan's steps are the one schedule: the term that forces
    each edge, the terms that close and the edges that leave are read from
    them, so the work here is array work.

    Returns (counts, rows) with counts[k] the number of admissible labelings
    of total exponent k mod modulus and rows the number of table rows
    generated.
    """
    n = group.order
    refuse_overflow(n, plan.free_count)
    label, pair = np.min_scalar_type(n - 1), np.min_scalar_type(n * n - 1)
    cay, inv = group.cayley.astype(label).ravel(), group.inverse.astype(label)
    labels = np.arange(n, dtype=label)[None, :]
    cols = {}   # frontier edge -> label column
    expo = np.zeros(1, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    rows = 0
    stale = False   # an edge left since the last merge, so keys may repeat

    def slot_label(term, s, flip=False):
        col = cols[term.vars[s]]
        return inv.take(col) if term.inverted[s] != flip else col

    def product_index(term, s, t):   # of (l_s, l_t) in a flattened n x n table
        return slot_label(term, s).astype(pair) * n + slot_label(term, t)

    for var, (forcing, closing, leaving) in zip(plan.order, plan.steps):
        own = own_index = None   # the forcing term, and its (l_0, l_1) index when known
        if forcing is None:
            if stale:
                cols, expo, mult = _merge(cols, expo % modulus, mult)
                stale = False
            if len(mult) * n > MAX_TABLE_ROWS:
                raise ContractionError(f"the contraction table would grow to {len(mult) * n} "
                                       f"rows, beyond the bound of {MAX_TABLE_ROWS}")
            cols = {u: col.repeat(n) for u, col in cols.items()}
            cols[var] = labels.repeat(len(mult), axis=0).ravel()
            expo, mult = expo.repeat(n), mult.repeat(n)
        elif forcing == FIXED:
            cols[var] = np.zeros(len(mult), dtype=label)
        else:
            own, s = forcing
            term = terms[own]
            # l_s = (l_{s+1} l_{s+2})^-1, read cyclically
            index = product_index(term, (s + 1) % 3, (s + 2) % 3)
            prod = cay.take(index)
            cols[var] = prod if term.inverted[s] else inv.take(prod)
            own_index = index if s == 2 else None
        rows += len(mult)
        keep = None
        for ti in closing:
            term = terms[ti]
            if ti != own:
                index = product_index(term, 0, 1)
                ok = cay.take(index) == slot_label(term, 2, flip=True)   # l_0 l_1 = l_2^-1
                keep = ok if keep is None else keep & ok
            elif modulus > 1:   # the forcing term holds by construction: its exponent only
                index = product_index(term, 0, 1) if own_index is None else own_index
            if modulus > 1:     # at modulus 1 every exponent is 0
                expo = expo + term.exp2.take(index)
        if keep is not None and not keep.all():
            cols = {u: col[keep] for u, col in cols.items()}
            expo, mult = expo[keep], mult[keep]
        if not len(mult):
            break
        for u in leaving:
            del cols[u]
            stale = True
    counts = np.zeros(modulus, dtype=np.int64)
    np.add.at(counts, expo % modulus, mult)
    return counts, rows


def refuse_overflow(n: int, free: int):
    """Refuse n^free labelings, which reach the int64 bound of the counts."""
    if (n > 1 and free >= 63) or n ** free >= 2 ** 63:
        raise ContractionError(f"{n}^{free} labelings reach the int64 bound 2^63; "
                               "the exact counts would wrap around")


def _merge(cols: dict, expo: np.ndarray, mult: np.ndarray):
    """Sum the multiplicities of rows with equal labels and exponent."""
    order = np.lexsort([expo, *cols.values()])
    expo, mult = expo[order], mult[order]
    cols = {u: col[order] for u, col in cols.items()}
    new = np.empty(len(mult), dtype=bool)
    new[:1] = True
    new[1:] = expo[1:] != expo[:-1]
    for col in cols.values():
        new[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(new)
    return ({u: col[starts] for u, col in cols.items()}, expo[starts],
            np.add.reduceat(mult, starts))


# ---------------------------------------------------------------------------
# engine inputs for twisted group algebras

def _edge_terms(A: TwistedGroupAlgebra, tri: GluedTriangulation):
    """The edge count, triangle terms and plan of the state sum of A on tri,
    oriented first when it is orientable.

    A triangle with labels (a, b, l_2), l_2 = (ab)^-1, weighs c(a, b)
    c(l_2, l_2^-1).  An edge of reversal type weighs c(g, g^-1)^-1 at its label
    g, folded into the slot of its smaller flag, whose label is g.  A table
    depends only on the cocycle and the subset of slots that pay, so at most
    8 are built per cocycle, which keeps them; at order 1 every exponent is
    0, and the cocycle's own zero table serves every subset.
    """
    c, inv = A.cocycle, A.group.inverse
    n_vars, slots, plan = _gluing_slots(tri)
    tables = c.triangle_tables
    missing = {paying for _, _, paying in slots} - tables.keys()
    if missing and c.order > 1:
        closer = c.exps[np.arange(A.group.order), inv]   # c(g, g^-1)
        # c(l_s, l_s^-1), s = 0, 1, 2, as tables of (l_0, l_1), with l_2 = (l_0 l_1)^-1
        weights = (closer[:, None], closer, closer[inv[A.group.cayley]])
    for paying in missing:
        tables[paying] = c.exps if c.order == 1 else (
            c.exps + weights[2] - sum(weights[s] for s in paying)) % c.order
        tables[paying].setflags(write=False)
    terms = [TriangleTerm(edges, inverted, tables[paying]) for edges, inverted, paying in slots]
    return n_vars, terms, plan


def _gluing_slots(tri: GluedTriangulation):
    """(edge count, per triangle (edge variables, inverted slots, paying
    slots), contraction plan) of tri, oriented first when it is orientable:
    all the state sum reads off the gluing, derived once per gluing inside a
    run scope.  An edge is numbered by its smaller flag; a reversal-type
    edge's smaller flag pays its weight and its larger flag reads the
    inverse label."""
    return shared(lambda: ("gluing_slots", tri.pairing.tobytes(), tri.reversal.tobytes()),
                  lambda: _derive_gluing_slots(tri))


def _derive_gluing_slots(tri: GluedTriangulation):
    if tri.orientable:
        tri = tri.oriented()
    flag = np.arange(tri.n_flags)
    first = flag < tri.pairing
    edge = (np.cumsum(first) - 1)[np.minimum(flag, tri.pairing)].reshape(-1, 3).tolist()
    inverted = (~first & tri.reversal).reshape(-1, 3).tolist()
    paying = (first & tri.reversal).reshape(-1, 3).tolist()
    n_vars, edges = int(first.sum()), [tuple(e) for e in edge]
    slots = tuple((e, tuple(i), tuple(s for s in range(3) if p[s]))
                  for e, i, p in zip(edges, inverted, paying))
    tree = _spanning_tree(tri, np.flatnonzero(first))
    return n_vars, slots, plan_from_terms(n_vars, edges, tree)


def _spanning_tree(tri: GluedTriangulation, edge_flag: np.ndarray) -> list:
    """Edge variables of a spanning tree of tri's 1-skeleton, V - 1 of them,
    grown depth-first from vertex 0; edge variable k runs from the corner of
    flag edge_flag[k] to the next corner of its triangle."""
    vertex = tri.corner_vertices
    head = edge_flag - edge_flag % 3 + (edge_flag + 1) % 3
    adjacent = [[] for _ in range(tri.n_vertices)]
    for var, (u, v) in enumerate(zip(vertex[edge_flag].tolist(), vertex[head].tolist())):
        adjacent[u].append((v, var))
        adjacent[v].append((u, var))
    reached, stack, tree = [True] + [False] * (len(adjacent) - 1), [0], []
    while stack:
        for v, var in adjacent[stack.pop()]:
            if not reached[v]:
                reached[v] = True
                tree.append(var)
                stack.append(v)
    return tree


def run_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation) -> StateSumResult:
    """Contract the state sum of A over a glued triangulation of any closed
    surface; a non-orientable one needs a sign-valued cocycle.  Inside a run
    scope (memo.py) each cocycle and gluing is contracted once."""
    return shared(lambda: ("run_state_sum", *cocycle_key(A.cocycle), tri.pairing.tobytes(),
                           tri.reversal.tobytes()),
                  lambda: _run_state_sum(A, tri))


def _run_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation) -> StateSumResult:
    if not (tri.orientable or A.cocycle.is_sign_valued):
        raise AlgebraError("the non-orientable state sum needs a sign-valued cocycle")
    # Each forced edge is forced by its own triangle, and the other triangle
    # of the last forced edge forces none, so at least E - T + 1 edges are
    # free or fixed.  V - 1 are fixed, so at least 2 - chi are free: refuse
    # by that before building the terms and the plan.
    chi = tri.euler_characteristic
    refuse_overflow(A.group.order, 2 - chi)
    n_vars, terms, plan = _edge_terms(A, tri)
    counts, rows = exact_contraction(A.group, A.cocycle.order, n_vars, terms, plan)
    counts.setflags(write=False)
    # #G^(T - E), times #G^(V - 1) labelings per gauge-fixed one
    value = Fraction(A.group.order) ** (chi - 1) * cyclotomic_integer(counts, "state sum")
    return StateSumResult(value, rows, counts, A.cocycle.order, plan)
