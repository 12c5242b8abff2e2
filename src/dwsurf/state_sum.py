"""State sums on glued triangulations, contracted exactly by a frontier table.

For a twisted group algebra the pairing vector is supported on g (x) g^-1, so
an edge never carries a dense tensor index: it carries a single group element,
and a triangle's trace factor vanishes unless the boundary product is the
identity.  The contraction is therefore variable elimination over edge labels
along a fixed plan: a table keyed by the labels of the open (frontier) edges
and the exponent so far, where a triangle with two labeled edges forces the
third and an edge leaves the table once its triangles are complete.  Every
admissible labeling contributes a root of unity, accumulated as an exact
int64 exponent histogram, which reduces modulo the cyclotomic polynomial to
an exact integer; the value is that integer times #G^(triangles - edges), a
Fraction.  This engine involves no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraError, TwistedGroupAlgebra
from .cocycles import cyclotomic_integer
from .memo import shared
from .surfaces import GluedTriangulation, SurfaceError, orientability_and_orientation

# Rows a free edge may expand the contraction table to.  A row is a few
# machine words, so this stays well under 1 GB, and it is above the largest
# table of symmetric:5 at genus 3 (120^3 rows).
MAX_TABLE_ROWS = 2 ** 22


class ContractionError(ValueError):
    """A contraction whose exact counts or table size would exceed the engine's bounds."""


@dataclass(frozen=True)
class ContractionPlan:
    """Static edge-processing order with per-edge branch kinds.

    ``kinds[i]`` is 'forced' when, with all earlier edges labeled, some
    triangle determines edge ``order[i]``, and 'free' otherwise.
    """

    order: tuple
    kinds: tuple

    @property
    def free_count(self) -> int:
        return sum(k == "free" for k in self.kinds)

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
    """One trilinear factor of the contraction.

    The three slot labels are edge variables, optionally inverted; the factor
    vanishes unless their ordered product is the identity, and otherwise
    contributes exp2[x_i, x_j] (+ exp1[x_k]) to the exponent sum.
    """

    vars: tuple      # three edge-variable indices
    inverted: tuple  # per slot: label is the inverse of the variable
    pair: tuple      # the two slots feeding exp2
    exp2: np.ndarray
    exp1_slot: int | None = None
    exp1: np.ndarray | None = None


def plan_from_terms(n_vars: int, terms: list) -> ContractionPlan:
    """Greedy deterministic order: always take a forced edge when one exists,
    otherwise the edge touching the most nearly-complete triangles.  The plan
    depends on the terms' edge variables only."""
    key = ("plan_from_terms", n_vars, tuple(term.vars for term in terms))
    return shared(key, lambda: _plan_from_terms(n_vars, terms))


def _plan_from_terms(n_vars: int, terms: list) -> ContractionPlan:
    slots_of = [[] for _ in range(n_vars)]
    for ti, term in enumerate(terms):
        for s, v in enumerate(term.vars):
            slots_of[v].append((ti, s))
    filled = [0] * len(terms)
    done = [False] * n_vars
    order, kinds = [], []
    for _ in range(n_vars):
        pick, kind = None, None
        for ti, term in enumerate(terms):
            if filled[ti] == 2:
                missing = [v for v in term.vars if not done[v]]
                if missing:
                    pick, kind = min(missing), "forced"
                    break
        if pick is None:
            best = None
            for v in range(n_vars):
                if done[v]:
                    continue
                score = (max((filled[ti] for ti, _ in slots_of[v]), default=0),
                         len(slots_of[v]), -v)
                if best is None or score > best[0]:
                    best = (score, v)
            pick, kind = best[1], "free"
        done[pick] = True
        order.append(pick)
        kinds.append(kind)
        for ti, _ in slots_of[pick]:
            filled[ti] += 1
    return ContractionPlan(tuple(order), tuple(kinds))


def exact_contraction(group, modulus: int, n_vars: int, var_exp, terms, plan):
    """Frontier dynamic program over the plan's edge order.

    The table holds one row per distinct (labels of the open frontier edges,
    exponent mod modulus), with an int64 multiplicity.  A free edge repeats
    every row #G times; a forced edge is one gather from the Cayley and
    inverse tables.  A completed triangle filters rows by its boundary product
    and adds its exponent terms.  An edge whose triangles are all complete
    leaves the frontier, and rows with equal keys merge.

    Returns (counts, rows) with counts[k] the number of admissible labelings
    of total exponent k mod modulus and rows the number of table rows
    generated.
    """
    n = group.order
    if n ** plan.free_count >= 2 ** 63:
        raise ContractionError(f"{n}^{plan.free_count} labelings reach the int64 bound 2^63; "
                               "the exact counts would wrap around")
    label = np.min_scalar_type(n - 1)
    cay, inv = group.cayley.astype(label), group.inverse.astype(label)
    terms_of = [[] for _ in range(n_vars)]
    for ti, term in enumerate(terms):
        for v in set(term.vars):
            terms_of[v].append(ti)
    unlabeled = [len(set(term.vars)) for term in terms]   # per term, distinct edges
    open_terms = [len(ts) for ts in terms_of]               # per edge, incomplete terms
    cols = {}   # frontier edge -> label column
    expo = np.zeros(1, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    rows = 0

    def slot_label(term, s):
        col = cols[term.vars[s]]
        return inv[col] if term.inverted[s] else col

    for var, kind in zip(plan.order, plan.kinds):
        if kind == "free":
            if len(mult) * n > MAX_TABLE_ROWS:
                raise ContractionError(f"the contraction table would grow to {len(mult) * n} "
                                       f"rows, beyond the bound of {MAX_TABLE_ROWS}")
            cols = {u: np.repeat(col, n) for u, col in cols.items()}
            cols[var] = np.tile(np.arange(n, dtype=label), len(mult))
            expo, mult = np.repeat(expo, n), np.repeat(mult, n)
        else:
            term, s = next((terms[ti], terms[ti].vars.index(var)) for ti in terms_of[var]
                           if unlabeled[ti] == 1 and terms[ti].vars.count(var) == 1)
            # l_s = (l_{s+1} l_{s+2})^-1, read cyclically
            prod = cay[slot_label(term, (s + 1) % 3), slot_label(term, (s + 2) % 3)]
            cols[var] = prod if term.inverted[s] else inv[prod]
        rows += len(mult)
        if var_exp[var] is not None:
            expo = (expo + var_exp[var][cols[var]]) % modulus
        keep = None
        closed = [] if open_terms[var] else [var]
        for ti in terms_of[var]:
            unlabeled[ti] -= 1
            if unlabeled[ti]:
                continue
            term = terms[ti]
            l = [slot_label(term, s) for s in range(3)]
            ok = cay[cay[l[0], l[1]], l[2]] == 0
            keep = ok if keep is None else keep & ok
            delta = term.exp2[l[term.pair[0]], l[term.pair[1]]]
            if term.exp1 is not None:
                delta = delta + term.exp1[l[term.exp1_slot]]
            expo = (expo + delta) % modulus
            for u in set(term.vars):
                open_terms[u] -= 1
                if not open_terms[u]:
                    closed.append(u)
        if keep is not None and not keep.all():
            cols = {u: col[keep] for u, col in cols.items()}
            expo, mult = expo[keep], mult[keep]
        if not len(mult):
            break
        if closed:
            for u in closed:
                del cols[u]
            cols, expo, mult = _merge(cols, expo, mult)
    counts = np.zeros(modulus, dtype=np.int64)
    np.add.at(counts, expo, mult)
    return counts, rows


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
    c = A.cocycle
    exps, N, inv = c.exps, c.order, A.group.inverse
    n = A.group.order
    rng_n = np.arange(n)
    pair_weight = (-exps[rng_n, inv]) % N   # c(g, g^-1)^-1 per edge label
    triangle_closer = exps[rng_n, inv]      # c(x3, x3^-1) for the third slot
    edges = tri.edge_flags()
    edge_of_flag = {flag: e for e, pair in enumerate(edges) for flag in pair}
    var_exp = [pair_weight if tri.reversal[f] else None for f, _ in edges]
    terms = []
    for t in range(tri.n_triangles):
        vars_, invs = [], []
        for s in range(3):
            f = 3 * t + s
            primary = f < tri.pairing[f]
            vars_.append(edge_of_flag[f])
            invs.append(bool(not primary and tri.reversal[f]))
        terms.append(TriangleTerm(tuple(vars_), tuple(invs), (0, 1), exps, 2, triangle_closer))
    return len(edges), var_exp, terms, N


def run_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation,
                  star: bool = False) -> StateSumResult:
    """Contract the state sum of A over a glued triangulation.

    With ``star=False`` the triangulation must be orientable; it is brought to
    a consistent orientation first.  With ``star=True`` the per-triangle
    orientations are taken as given and the edges where they agree use the
    involution-twisted pairing vector, which requires a sign-valued cocycle.
    """
    if star:
        if not A.cocycle.is_sign_valued:
            raise AlgebraError("the non-orientable state sum needs a sign-valued cocycle")
    else:
        result = orientability_and_orientation(tri)
        if not result.orientable:
            raise SurfaceError("this state sum needs an orientable triangulation; "
                               "use the star variant")
        tri = result.oriented
    n_vars, var_exp, terms, modulus = _edge_terms(A, tri)
    plan = plan_from_terms(n_vars, terms)
    counts, rows = exact_contraction(A.group, modulus, n_vars, var_exp, terms, plan)
    scale = Fraction(A.group.order) ** (tri.n_triangles - tri.n_edges)
    value = scale * cyclotomic_integer(counts, "state sum")
    return StateSumResult(value, rows, counts, modulus, plan)


def fhk_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation) -> Fraction:
    """State sum of an oriented surface: trace form over triangles, pairing
    vector over edges."""
    return run_state_sum(A, tri, star=False).value


def star_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation) -> Fraction:
    """State sum of a (possibly non-orientable) surface using the involution."""
    return run_state_sum(A, tri, star=True).value

