"""Dijkgraaf-Witten invariants of closed surfaces, by every route at once.

The direct route sums over homomorphisms from the surface group to G, each
weighted by an exact root-of-unity evaluation of the 2-cocycle on the
fundamental cycle of the standard polygon.  It cuts the polygon along its
handles (crosscaps), so the sum becomes a product of transfer operators on
(relator prefix, exponent) counts: O(n^3) work per handle operator, built
once, and genus is a loop count.  count_homs, the oracle of the dw check
hom-count rows, enumerates all n^generators tuples and only counts those
that satisfy the relator; the weighted brute force and the weight of a
single homomorphism are test oracles (tests/oracles.py).  The state-sum
route contracts the twisted group algebra over a triangulation.  The
Verlinde route reads the invariant off the Wedderburn block dimensions (and,
for non-orientable surfaces, the symmetric/skew indicators).  A separate
labeling sum over a simplicial triangulation, enumerated labeling by
labeling in blocks, serves as a fidelity oracle for small inputs.  Every route
returns an exact Fraction: the direct, state-sum and labeling routes reduce
their exponent histograms modulo the cyclotomic polynomial, and the Verlinde
route sums powers of its integer block dimensions.  cross_check runs the
routes side by side and decides agreement and integrality by exact equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import TwistedGroupAlgebra, WedderburnDecomposition, fs_indicators, wedderburn_decompose
from .cocycles import TwoCocycle, c_regular_count, cyclotomic_integer, trivial_cocycle
from .groups import FiniteGroup, conjugacy_classes
from .state_sum import TriangleTerm, plan_from_terms, run_state_sum
from .surfaces import (RelatorPresentation, SimplicialSurface, SurfaceSpec, seven_vertex_torus,
                       standard_triangulation, tetrahedron_sphere)


class InvariantError(ValueError):
    """Inconsistent inputs or a computation that failed its own sanity checks."""


# ---------------------------------------------------------------------------
# homomorphism enumeration

# Entries of the largest temporary a blocked loop builds at once: (row, a, b)
# entries of the handle operator, tuple labels of count_homs, edge labels of
# the labeling enumeration.  No n^3-sized table exists for the largest groups,
# and the oracles stay a few MB.
_BLOCK_ENTRIES = 1 << 18


def count_homs(G: FiniteGroup, pres: RelatorPresentation, cap: int = 10 ** 8) -> int:
    """Brute-force |Hom(pi, G)| by vectorized enumeration, capped in tuples.

    The n^generators tuples are taken in blocks of consecutive indices: the
    last generators run through all n^inner values as arrays, computed once,
    with at most _BLOCK_ENTRIES labels, and the leading ones are fixed per
    block.  Each letter of the relator is one flat gather from the Cayley
    table, and a block counts the tuples whose product is the identity.
    """
    n, m = G.order, pres.generators
    if n ** m > cap:
        raise InvariantError(f"{n}^{m} tuples exceed the cap of {cap}")
    inner = 0
    while inner < m and n ** (inner + 1) * m <= _BLOCK_ENTRIES:
        inner += 1
    index = np.arange(n ** inner)
    trailing = [index // n ** (inner - 1 - j) % n for j in range(inner)]
    cay, inv = G.cayley.ravel(), G.inverse
    count = 0
    for lead in range(n ** (m - inner)):
        vals = [lead // n ** (m - inner - 1 - j) % n for j in range(m - inner)] + trailing
        h = 0
        for letter in pres.word:
            g = vals[abs(letter) - 1]
            h = cay.take(h * n + (g if letter > 0 else inv[g]))
        count += int(np.count_nonzero(h == 0))
    return count


def _operator_rows(G: FiniteGroup, c: TwoCocycle, rows: np.ndarray, orientable: bool,
                   first: bool = False) -> np.ndarray:
    """Transfer operator rows T[i, h, k]: the number of handles (a, b), or of
    crosscaps x, that take the relator prefix rows[i] to h with cocycle
    exponent k mod N.

    A handle reads the letters a, b, a^-1, b^-1 and pays c(x, x^-1) back for
    x = a, b; a crosscap reads x, x.  Each letter adds exps[prefix, letter],
    except the first letter of the whole relator (first=True, rows = [0]),
    which carries no c(1, g) term.
    """
    n, N = G.order, c.order
    cay, inv, exps = G.cayley, G.inverse, c.exps
    idx = np.arange(n)
    if orientable:
        shape = (len(rows), n, n)
        a, b = idx[None, :, None], idx[None, None, :]
        letters = (a, b, inv[a], inv[b])
        pay_back = exps[idx, inv]
        k = -(pay_back[a] + pay_back[b])
    else:
        shape = (len(rows), n)
        letters = (idx[None, :],) * 2
        k = 0
    h = np.asarray(rows).reshape((-1,) + (1,) * (len(shape) - 1))
    row = np.arange(len(rows)).reshape(h.shape)
    for pos, e in enumerate(letters):
        if pos or not first:
            k = k + exps[h, e]
        h = cay[h, e]
    slot = (row * n + h) * N + np.mod(k, N)
    hist = np.bincount(np.broadcast_to(slot, shape).ravel(), minlength=len(rows) * n * N)
    return hist.reshape(len(rows), n, N)


def _direct_counts(G: FiniteGroup, c: TwoCocycle, spec: SurfaceSpec) -> np.ndarray:
    """Histogram over k of homomorphisms pi_1(surface) -> G of weight zeta_N^k.

    The state v[h, k] counts partial assignments of relator prefix h and
    exponent k.  The first handle or crosscap starts at the identity prefix
    (one operator row, O(n^2) work); every further one applies the general
    operator, built once in O(n^3) (handle) or O(n^2) (crosscap) work, as N
    int64 matmuls with a cyclic shift in k.  Genus is a loop count.
    """
    n, N = G.order, c.order
    steps = spec.genus
    if steps == 0:
        return np.eye(1, N, dtype=np.int64)[0]
    generators = 2 * steps if spec.orientable else steps
    if n ** generators >= 2 ** 63:
        raise InvariantError(f"{n}^{generators} homomorphism candidates overflow int64 counts")
    v = _operator_rows(G, c, np.zeros(1, dtype=np.int64), spec.orientable, first=True)[0]
    if steps > 1:
        block = max(1, _BLOCK_ENTRIES // (n * n if spec.orientable else n))
        T = np.empty((N, n, n), dtype=np.int64)   # T[d, h', h], transposed for the matmuls
        for start in range(0, n, block):
            stop = min(n, start + block)
            rows = _operator_rows(G, c, np.arange(start, stop), spec.orientable)
            T[:, :, start:stop] = rows.transpose(2, 1, 0)
        for _ in range(steps - 1):
            v = sum(np.roll(T[d] @ v, d, axis=1) for d in range(N))
    return v[0]


def dw_direct(G: FiniteGroup, c: TwoCocycle, spec: SurfaceSpec) -> Fraction:
    """(1/#G) sum over homomorphisms of the cocycle weight.

    The homomorphism sum is cut along the handles (crosscaps) of the standard
    relator into a product of transfer operators: O(n^3 + g n^2 N^2) work for
    genus g, order n and cocycle order N, and memory of n^2 N int64 counts.
    Counts are exact and reduce to an exact integer modulo Phi_N;
    #G^generators >= 2^63 is refused with InvariantError.  The sphere
    contributes the single trivial homomorphism, giving 1/#G for every
    cocycle.
    """
    if not spec.orientable and not c.is_sign_valued:
        raise InvariantError("non-orientable surfaces need a sign-valued cocycle")
    return Fraction(cyclotomic_integer(_direct_counts(G, c, spec), "direct route"), G.order)


# ---------------------------------------------------------------------------
# labeling-sum oracle on simplicial surfaces

def exact_contraction(group, modulus: int, n_vars: int, var_exp, terms, plan):
    """Block-wise enumeration of the admissible labelings, summing their
    root-of-unity exponents.

    The labeling oracle's engine, kept apart from the state sum's frontier
    table so that the two stay independent checks of each other: a row is one
    partial labeling, rows are never merged, every labeled edge is kept and
    nothing is gauge-fixed.  The edges are labeled in plan.order, one level at
    a time.  A term is checked and weighted at the level of its last edge; a
    term that closes there and holds that edge once forces its label,
    l_s = (l_{s+1} l_{s+2})^-1, by one gather, and otherwise the edge is free
    and every row repeats #G times.  A block of rows goes through the levels
    breadth-first; one that would outgrow _BLOCK_ENTRIES labels is split and
    its parts are taken depth-first, so the live table stays bounded.
    Returns (counts, states_visited) with counts[k] the number of admissible
    labelings of total exponent k mod modulus and states_visited the rows
    generated, the nodes of the equivalent backtracking search.
    """
    n = group.order
    label = np.min_scalar_type(n - 1)
    cay, inv = group.cayley.astype(label), group.inverse.astype(label)
    order = plan.order
    position = {var: pos for pos, var in enumerate(order)}
    closing = [[] for _ in order]    # per level: (slot columns, term) completed there
    forcing = [None] * len(order)    # per level: (slot columns, slot) fixing its label
    for term in terms:
        last = max(position[v] for v in term.vars)
        slots = [(position[v], flip) for v, flip in zip(term.vars, term.inverted)]
        closing[last].append((slots, term))
        var = order[last]
        if forcing[last] is None and term.vars.count(var) == 1:
            forcing[last] = (slots, term.vars.index(var))

    def slot_label(lab, slot):
        col = lab[:, slot[0]]
        return inv[col] if slot[1] else col

    # rows a block may hold when a free edge repeats them; one row always may
    step = max(1, _BLOCK_ENTRIES // (max(1, n_vars) * n))
    counts = np.zeros(modulus, dtype=np.int64)
    visited = 0
    stack = [(0, np.zeros((1, n_vars), dtype=label), np.zeros(1, dtype=np.int64))]
    while stack:
        pos, lab, expo = stack.pop()
        while pos < n_vars and len(expo):
            if forcing[pos] is None:
                if len(expo) > step:
                    stack.extend((pos, lab[i:i + step], expo[i:i + step])
                                 for i in reversed(range(0, len(expo), step)))
                    break
                lab = np.repeat(lab, n, axis=0)
                lab[:, pos] = np.tile(np.arange(n, dtype=label), len(expo))
                expo = np.repeat(expo, n)
            else:
                slots, s = forcing[pos]
                x = cay[slot_label(lab, slots[(s + 1) % 3]), slot_label(lab, slots[(s + 2) % 3])]
                lab[:, pos] = x if slots[s][1] else inv[x]
            visited += len(expo)
            uexp = var_exp[order[pos]]
            if uexp is not None:
                expo = expo + uexp[lab[:, pos]]
            keep = None
            for slots, term in closing[pos]:
                l = [slot_label(lab, slot) for slot in slots]
                ok = cay[cay[l[0], l[1]], l[2]] == 0
                keep = ok if keep is None else keep & ok
                expo = expo + term.exp2[l[term.pair[0]], l[term.pair[1]]]
                if term.exp1 is not None:
                    expo = expo + term.exp1[l[term.exp1_slot]]
            if keep is not None and not keep.all():
                lab, expo = lab[keep], expo[keep]
            pos += 1
        if pos == n_vars:
            counts += np.bincount(expo % modulus, minlength=modulus)
    return counts, visited


def dw_labeling_oracle(G: FiniteGroup, c: TwoCocycle, surf: SimplicialSurface,
                       node_limit: int = 10 ** 8) -> Fraction:
    """Sum over admissible edge labelings of a simplicial surface.

    A by-the-book reference evaluation: every oriented edge gets a group
    label with l(-e) = l(e)^-1, triangle boundaries multiply to the identity,
    and each triangle ABC (A<B<C in the vertex order) contributes
    c(l(AB), l(BC)) raised to +-1 according to whether its orientation runs
    A->B or not.  The sum has #G^(V-1) terms per homomorphism class, all of
    them enumerated by exact_contraction, so a plan whose state count
    (ContractionPlan.estimate_nodes) exceeds node_limit is refused before any
    labeling is made.
    """
    n, N = G.order, c.order
    edges = surf.edges
    edge_index = {e: i for i, e in enumerate(edges)}
    inv = G.inverse
    neg_table = (-c.exps[np.ix_(inv, inv)]) % N
    terms = []
    for tr in surf.triangles:
        vars_, invs = [], []
        for s in range(3):
            u, v = tr[s], tr[(s + 1) % 3]
            vars_.append(edge_index[(min(u, v), max(u, v))])
            invs.append(u > v)
        a = min(tr)
        pa = tr.index(a)
        if tr[(pa + 1) % 3] == sorted(tr)[1]:  # orientation runs A -> B
            pair, table = ((pa, (pa + 1) % 3), c.exps)
        else:
            pair, table = (((pa + 2) % 3, (pa + 1) % 3), neg_table)
        terms.append(TriangleTerm(tuple(vars_), tuple(invs), pair, table))
    plan = plan_from_terms(len(edges), terms)
    estimate = plan.estimate_nodes(n)
    if estimate > node_limit:
        raise InvariantError(
            f"labeling sum needs {estimate} states, beyond the limit {node_limit}")
    counts, _ = exact_contraction(G, N, len(edges), [None] * len(edges), terms, plan)
    return Fraction(cyclotomic_integer(counts, "labeling oracle"), n ** surf.n_vertices)


# ---------------------------------------------------------------------------
# Verlinde-type evaluation and counting formulas

def verlinde(dec: WedderburnDecomposition, spec: SurfaceSpec) -> Fraction:
    """(#G)^(-chi) sum over blocks of (dim)^chi, or of (fs * dim)^chi when
    non-orientable; blocks in a dual pair contribute nothing for every chi.
    Exact, from the validated integer dimensions and indicators."""
    chi = spec.chi
    if spec.orientable:
        total = sum(Fraction(b.dim) ** chi for b in dec.blocks)
    else:
        if any(b.fs is None for b in dec.blocks):
            raise InvariantError("non-orientable evaluation needs fs indicators")
        total = sum(Fraction(b.fs * b.dim) ** chi for b in dec.blocks if b.fs)
    return Fraction(dec.algebra.dim) ** (-chi) * total


def mednykh_count(G: FiniteGroup, spec: SurfaceSpec, seed: int = 0) -> int:
    """|Hom(pi_1(orientable surface), G)| from ordinary irreducible dimensions:
    #G * sum over irreducibles of (#G/dim)^(2g-2), i.e. #G times the Verlinde
    value of the trivial cocycle."""
    if not spec.orientable:
        raise InvariantError("the homomorphism-count formula is for orientable surfaces")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)), seed)
    val = G.order * verlinde(dec, spec)
    if val.denominator != 1:
        raise InvariantError(f"homomorphism count {val} is not an integer")
    return int(val)


def boundary_hom_count(G: FiniteGroup, genus: int, boundary: tuple, seed: int = 0) -> int:
    """Number of homomorphisms from a genus-g surface with k boundary circles
    sending the i-th boundary class into the conjugacy class of boundary[i].

    Character formula: #G^(2g-1) * prod |K_i| * sum over irreducibles of
    dim^(2-2g-k) * prod chi(g_i), evaluated from the trivial-cocycle blocks.
    The characters are floats, so a count of 2^53 or more, where a double no
    longer pins the integer, is refused with InvariantError.
    """
    k = len(boundary)
    if k < 1:
        raise InvariantError("at least one boundary circle is required")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)), seed)
    classes = conjugacy_classes(G)
    n = G.order
    class_sizes = [classes.sizes[classes.class_of[g]] for g in boundary]
    total = 0j
    for b in dec.blocks:
        prod = complex(float(b.dim) ** (2 - 2 * genus - k))
        for g in boundary:
            prod *= b.character[g]
        total += prod
    val = float(n) ** (2 * genus - 1) * float(np.prod(class_sizes)) * total
    nearest = round(val.real)
    if abs(nearest) >= 2 ** 53:
        raise InvariantError(f"boundary count {val} is past 2^53, where doubles do not "
                             "resolve integers")
    if abs(val - nearest) > 1e-6 * max(1.0, abs(nearest)):
        raise InvariantError(f"boundary count {val} is not near an integer")
    return int(nearest)


def boundary_hom_count_brute(G: FiniteGroup, genus: int, boundary: tuple,
                             cap: int = 10 ** 7) -> int:
    """Direct count of tuples (a_1,b_1,..,a_g,b_g,c_1,..,c_k) with
    prod [a_i,b_i] prod c_j = 1 and c_j conjugate to boundary[j]."""
    classes = conjugacy_classes(G)
    members = [classes.members(classes.class_of[g]).tolist() for g in boundary]
    n = G.order
    work = n ** (2 * genus) * int(np.prod([len(mem) for mem in members]))
    if work > cap:
        raise InvariantError(f"brute force needs {work} tuples, beyond the cap {cap}")
    cay = [list(map(int, row)) for row in G.cayley]
    inv = list(map(int, G.inverse))
    count = 0
    for ab in itertools.product(range(n), repeat=2 * genus):
        h = 0
        for i in range(genus):
            a, b = ab[2 * i], ab[2 * i + 1]
            h = cay[cay[cay[cay[h][a]][b]][inv[a]]][inv[b]]
        for cs in itertools.product(*members):
            x = h
            for cj in cs:
                x = cay[x][cj]
            if x == 0:
                count += 1
    return count


# ---------------------------------------------------------------------------
# cross-check reports

@dataclass
class InvariantReport:
    """One surface + group + cocycle evaluated by all requested routes."""

    group: str
    cocycle: str
    surface: str
    chi: int
    values: dict         # route -> exact Fraction
    integrality: dict | None
    diagnostics: dict = field(default_factory=dict)
    passed: bool = False
    states_visited: int | None = None

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "cocycle": self.cocycle,
            "surface": self.surface,
            "chi": self.chi,
            "values": {k: [float(v), 0.0] for k, v in self.values.items()},
            "exact": {k: str(v) for k, v in self.values.items()},
            "integrality": self.integrality,
            "diagnostics": self.diagnostics,
            "passed": self.passed,
            "states_visited": self.states_visited,
        }


def cross_check(G: FiniteGroup, c: TwoCocycle, spec: SurfaceSpec,
                methods: tuple = ("direct", "statesum", "verlinde"),
                oracle: bool = False, seed: int = 0, workers: int = 1) -> InvariantReport:
    """Run the requested routes and compare; disagreement yields a failing
    report with all raw values rather than an exception.

    The values are exact Fractions, so the routes agree when they are equal,
    and for chi <= 0 the value must be an integer, >= 1 on orientable
    surfaces and >= 0 on non-orientable ones.

    A labeling oracle that refuses its input leaves its refusal in
    diagnostics["labeling_oracle"], and the requested routes decide.

    ``workers`` has no effect: every route runs in this process.  It is
    still accepted so that existing callers keep working.
    """
    values: dict = {}
    diagnostics: dict = {}
    states = None
    if not spec.orientable and not c.is_sign_valued:
        raise InvariantError("non-orientable surfaces need a sign-valued cocycle")
    if "direct" in methods:
        values["direct"] = dw_direct(G, c, spec)
    A = TwistedGroupAlgebra(G, c)
    if "statesum" in methods:
        tri = standard_triangulation(spec)
        res = run_state_sum(A, tri, star=not spec.orientable)
        values["statesum"] = Fraction(G.order) ** (-spec.chi) * res.value
        states = res.states_visited
        diagnostics["statesum_plan_free_edges"] = res.plan.free_count
    if "verlinde" in methods:
        dec = wedderburn_decompose(A, seed)
        if not spec.orientable:
            dec = fs_indicators(dec)
        values["verlinde"] = verlinde(dec, spec)
        r = c_regular_count(G, c)
        diagnostics["block_dims"] = list(dec.dims)
        diagnostics["fs"] = [b.fs for b in dec.blocks]
        diagnostics["sum_d_squared_ok"] = sum(d * d for d in dec.dims) == G.order
        diagnostics["block_count_matches_regular_classes"] = dec.block_count() == r
        diagnostics.update(dec.diagnostics)
    if oracle and spec.orientable and spec.genus <= 1:
        surf = tetrahedron_sphere() if spec.genus == 0 else seven_vertex_torus()
        try:
            values["labeling_oracle"] = dw_labeling_oracle(G, c, surf)
        except InvariantError as exc:     # refused as too large; the routes still count
            diagnostics["labeling_oracle"] = str(exc)

    vals = list(values.values())
    integrality = None
    integrality_ok = True
    if spec.chi <= 0 and vals:
        v = values.get("direct", vals[0])
        positive_ok = v >= 1 if spec.orientable else v >= 0
        integrality = {"nearest": round(v), "integer": v.denominator == 1,
                       "positive_ok": positive_ok}
        integrality_ok = v.denominator == 1 and positive_ok
    passed = (len(set(vals)) <= 1 and integrality_ok
              and diagnostics.get("sum_d_squared_ok", True)
              and diagnostics.get("block_count_matches_regular_classes", True))
    return InvariantReport(G.name, c.name or "cocycle", spec.name, spec.chi, values,
                           integrality, diagnostics, passed, states)


# ---------------------------------------------------------------------------
# the validation catalog

ORIENTABLE_CATALOG = (
    ("cyclic:1", "trivial"), ("cyclic:2", "trivial"), ("cyclic:3", "trivial"),
    ("cyclic:4", "trivial"), ("cyclic:5", "trivial"), ("cyclic:6", "trivial"),
    ("symmetric:3", "trivial"), ("quaternion:8", "trivial"), ("dihedral:8", "trivial"),
    ("product(cyclic:2,cyclic:2)", "heisenberg:2"),
    ("product(cyclic:3,cyclic:3)", "heisenberg:3"),
)

# groups whose full sign-valued catalogs feed the non-orientable suites
NONORIENTABLE_CATALOG_GROUPS = (
    "product(cyclic:2,cyclic:2)", "cyclic:2", "cyclic:3", "cyclic:4", "quaternion:8",
)

SIGN_CATALOG_GROUPS = (
    "cyclic:2", "cyclic:4", "product(cyclic:2,cyclic:2)", "dihedral:8", "quaternion:8",
)


def catalog_pairs(entries=ORIENTABLE_CATALOG) -> list:
    """Materialize (group, cocycle) pairs from catalog descriptors."""
    from .cocycles import heisenberg_cocycle
    from .groups import build_group
    out = []
    for gspec, cname in entries:
        if cname == "trivial":
            G = build_group(gspec)
            out.append((G, trivial_cocycle(G)))
        elif cname.startswith("heisenberg:"):
            c = heisenberg_cocycle(int(cname.split(":")[1]))
            out.append((c.group, c))
        else:
            raise InvariantError(f"unknown catalog cocycle {cname}")
    return out


def nonorientable_catalog_pairs() -> list:
    """(group, cocycle) pairs for the non-orientable suites: every sign-valued
    catalog entry on the supported groups, plus the trivial ones."""
    from .cocycles import sign_cocycles_catalog
    from .groups import build_group
    out = []
    for gspec in NONORIENTABLE_CATALOG_GROUPS:
        G = build_group(gspec)
        if gspec in ("cyclic:3", "quaternion:8"):
            out.append((G, trivial_cocycle(G)))
        else:
            out.extend((G, c) for c in sign_cocycles_catalog(G))
    return out


def sign_catalog_pairs() -> list:
    from .cocycles import sign_cocycles_catalog
    from .groups import build_group
    out = []
    for gspec in SIGN_CATALOG_GROUPS:
        G = build_group(gspec)
        out.extend((G, c) for c in sign_cocycles_catalog(G))
    return out
