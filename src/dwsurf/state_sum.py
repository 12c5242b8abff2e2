"""State sums on glued triangulations, contracted exactly by backtracking.

For a twisted group algebra the pairing vector is supported on g (x) g^-1, so
an edge never carries a dense tensor index: it carries a single group element,
and a triangle's trace factor vanishes unless the boundary product is the
identity.  The contraction is therefore a backtracking search over edge
labels in which a triangle with two labeled edges forces the third.  Every
admissible labeling contributes a root of unity, accumulated as an exact
integer exponent histogram; the only floating-point step is the final
embedding into complex doubles.

A dense contraction over raw structure constants is also provided; it is used
to validate the sparse engine against small matrix algebras, where the state
sum has a closed form.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError, TwistedGroupAlgebra
from .surfaces import GluedTriangulation, SurfaceError, orientability_and_orientation


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
        """Upper bound on search states visited for a given group order."""
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
    value: complex
    states_visited: int
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
    otherwise the edge touching the most nearly-complete triangles."""
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


def exact_contraction(group, modulus: int, n_vars: int, var_exp, terms, plan,
                      first_values=None):
    """Backtracking sum of root-of-unity exponents over admissible labelings.

    Returns (counts, states_visited) with counts[k] the number of admissible
    labelings of total exponent k mod modulus.  ``first_values`` restricts the
    first plan variable, which is how worker partitioning stays deterministic.
    """
    n = group.order
    cay = [list(map(int, row)) for row in group.cayley]
    inv = list(map(int, group.inverse))
    exp2 = [[list(map(int, row)) for row in t.exp2] for t in terms]
    exp1 = [None if t.exp1 is None else list(map(int, t.exp1)) for t in terms]
    uexp = [None if e is None else list(map(int, e)) for e in var_exp]
    slots_of = [[] for _ in range(n_vars)]
    for ti, term in enumerate(terms):
        for s, v in enumerate(term.vars):
            slots_of[v].append((ti, s))
    labels = [[-1, -1, -1] for _ in terms]
    filled = [0] * len(terms)
    val = [-1] * n_vars
    counts = [0] * modulus
    visited = 0
    order = plan.order
    domain = list(range(n))
    top_domain = list(first_values) if first_values is not None else domain

    def candidates(var):
        forced = None
        for ti, s in slots_of[var]:
            if filled[ti] == 2 and labels[ti][s] < 0:
                l = labels[ti]
                if s == 0:
                    x = inv[cay[l[1]][l[2]]]
                elif s == 1:
                    x = inv[cay[l[2]][l[0]]]
                else:
                    x = inv[cay[l[0]][l[1]]]
                v = inv[x] if terms[ti].inverted[s] else x
                if forced is None:
                    forced = v
                elif forced != v:
                    return ()
        if forced is not None:
            return (forced,)
        return None

    def assign(var, v):
        # returns (ok, exponent delta, slots touched)
        delta = uexp[var][v] if uexp[var] is not None else 0
        touched = []
        ok = True
        for ti, s in slots_of[var]:
            term = terms[ti]
            lab = inv[v] if term.inverted[s] else v
            labels[ti][s] = lab
            filled[ti] += 1
            touched.append((ti, s))
            pi, pj = term.pair
            if s == pi:
                other = labels[ti][pj]
                if other >= 0:
                    delta += exp2[ti][lab][other]
            elif s == pj:
                other = labels[ti][pi]
                if other >= 0:
                    delta += exp2[ti][other][lab]
            if term.exp1_slot == s and exp1[ti] is not None:
                delta += exp1[ti][lab]
            if filled[ti] == 3:
                l = labels[ti]
                if cay[cay[l[0]][l[1]]][l[2]] != 0:
                    ok = False
                    break
        return ok, delta, touched

    def undo(var, touched):
        for ti, s in touched:
            labels[ti][s] = -1
            filled[ti] -= 1
        val[var] = -1

    expo = 0

    def walk(pos):
        nonlocal expo, visited
        if pos == n_vars:
            counts[expo % modulus] += 1
            return
        var = order[pos]
        cand = candidates(var)
        if cand == ():
            return
        if cand is None:
            cand = top_domain if pos == 0 else domain
        for v in cand:
            visited += 1
            val[var] = v
            ok, delta, touched = assign(var, v)
            if ok:
                expo += delta
                walk(pos + 1)
                expo -= delta
            undo(var, touched)

    walk(0)
    return counts, visited


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
    edge_of_flag = {}
    for e, (f, p) in enumerate(edges):
        edge_of_flag[f] = e
        edge_of_flag[p] = e
    var_exp = []
    for f, p in edges:
        var_exp.append(pair_weight if tri.reversal[f] else None)
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


def plan_contraction(tri: GluedTriangulation) -> ContractionPlan:
    """Deterministic greedy contraction order for a triangulation's edges."""
    edges = tri.edge_flags()
    edge_of_flag = {}
    for e, (f, p) in enumerate(edges):
        edge_of_flag[f] = e
        edge_of_flag[p] = e
    terms = []
    for t in range(tri.n_triangles):
        vars_ = tuple(edge_of_flag[3 * t + s] for s in range(3))
        terms.append(TriangleTerm(vars_, (False,) * 3, (0, 1), np.zeros((1, 1), dtype=np.int64)))
    return plan_from_terms(len(edges), terms)


def _chunk_worker(args):
    group, modulus, n_vars, var_exp, terms, plan, chunk = args
    return exact_contraction(group, modulus, n_vars, var_exp, terms, plan, first_values=chunk)


def run_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation, star: bool = False,
                  workers: int = 1) -> StateSumResult:
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
    n = A.group.order
    workers = min(workers, n, os.cpu_count() or 1)   # at most one chunk per worker
    if workers > 1 and n_vars > 0 and plan.kinds[0] == "free":
        chunks = [list(range(start, n, workers)) for start in range(workers)]
        args = [(A.group, modulus, n_vars, var_exp, terms, plan, ch) for ch in chunks]
        counts = np.zeros(modulus, dtype=np.int64)
        visited = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, seen in pool.map(_chunk_worker, args):
                counts += np.asarray(part, dtype=np.int64)
                visited += seen
    else:
        part, visited = exact_contraction(A.group, modulus, n_vars, var_exp, terms, plan)
        counts = np.asarray(part, dtype=np.int64)
    scale = float(n) ** (tri.n_triangles - tri.n_edges)
    roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    value = complex(scale * (counts @ roots))
    return StateSumResult(value, visited, counts, modulus, plan)


def fhk_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation, workers: int = 1) -> complex:
    """State sum of an oriented surface: trace form over triangles, pairing
    vector over edges."""
    return run_state_sum(A, tri, star=False, workers=workers).value


def star_state_sum(A: TwistedGroupAlgebra, tri: GluedTriangulation, workers: int = 1) -> complex:
    """State sum of a (possibly non-orientable) surface using the involution."""
    return run_state_sum(A, tri, star=True, workers=workers).value


# ---------------------------------------------------------------------------
# dense reference contraction for raw structure constants

def dense_state_sum(structure: np.ndarray, tri: GluedTriangulation) -> complex:
    """Literal tensor contraction of the state sum from structure constants.

    Intended for small algebras (dimension <= ~10) on small oriented
    triangulations; validates the sparse engine against closed-form values for
    matrix algebras.
    """
    C = np.asarray(structure, dtype=complex)
    d = C.shape[0]
    result = orientability_and_orientation(tri)
    if not result.orientable:
        raise SurfaceError("dense contraction is implemented for orientable surfaces only")
    tri = result.oriented
    T = np.einsum("ijj->i", C)                  # trace functional
    T2 = np.einsum("ijk,k->ij", C, T)           # T(ab)
    T3 = np.einsum("ijm,mkl,l->ijk", C, C, T)   # T(abc)
    v = np.linalg.inv(T2)                       # pairing vector, two legs
    if tri.n_flags > 16:
        raise SurfaceError("dense contraction is meant for tiny triangulations")
    letters = "abcdefghijklmnop"
    subs, ops = [], []
    for t in range(tri.n_triangles):
        subs.append("".join(letters[3 * t + s] for s in range(3)))
        ops.append(T3)
    for f, p in tri.edge_flags():
        subs.append(letters[f] + letters[p])
        ops.append(v)
    return complex(np.einsum(",".join(subs) + "->", *ops))
