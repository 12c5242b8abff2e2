"""Dijkgraaf-Witten invariants of closed surfaces, by every route at once.

The direct route sums over homomorphisms from the surface group to G, each
weighted by an exact root-of-unity evaluation of the 2-cocycle on the
fundamental cycle of the standard polygon.  In the twisted group ring
Z[x]/(x^N - 1)^c[G] its handles (crosscaps) sum to one element H, an
(element, exponent) histogram, and #G times the invariant is [e_1] H^g,
computed by repeated squaring: about 2 log2(g) ring products of
O(N n^2 + n^2 N^2) each plus one O(n N^2) read of the e_1 coefficient, in
O(n^2 + n N) memory, for order n and cocycle order N.
count_homs, the oracle of the dw check hom-count rows, cuts the relator
into two halves that share no generator, histograms each half's product
over G and pairs the histograms, reading only the Cayley and inverse
tables; boundary_hom_count_brute pairs the same histogram of the
commutators with one of the boundary products.  The
weighted brute force and the weight of a single homomorphism are test
oracles (tests/oracles.py).  The state-sum route contracts the twisted
group algebra over a triangulation.  The Verlinde route reads the invariant
off the Wedderburn block dimensions (and, for non-orientable surfaces, the
symmetric/skew indicators).  A separate labeling sum over a simplicial
triangulation, enumerated labeling by labeling in blocks, serves as a
fidelity oracle for small inputs.  Every route returns an exact Fraction:
the direct, state-sum and labeling routes reduce their exponent histograms
modulo the cyclotomic polynomial, and the Verlinde route sums powers of its
integer block dimensions.  cross_check runs the routes side by side and
decides agreement and integrality by exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import TwistedGroupAlgebra, WedderburnDecomposition, wedderburn_decompose
from .cocycles import (TwoCocycle, c_regular_count, cyclotomic_integer, parse_cocycle,
                       sign_cocycles_catalog, trivial_cocycle)
from .groups import FiniteGroup, build_group, conjugacy_classes
from .state_sum import TriangleTerm, plan_from_terms, refuse_overflow, run_state_sum
from .surfaces import (GluedTriangulation, RelatorPresentation, SimplicialSurface, SurfaceSpec,
                       relator_presentation, seven_vertex_torus, standard_triangulation,
                       tetrahedron_sphere)


class InvariantError(ValueError):
    """Inconsistent inputs or a computation that failed its own sanity checks."""


# ---------------------------------------------------------------------------
# homomorphism enumeration

# Entries of the largest temporary a blocked oracle loop builds at once:
# generator labels of one half of count_homs, edge labels of the labeling
# enumeration.  The oracles stay a few MB.
_BLOCK_ENTRIES = 1 << 18

# Bounds of the oracles, refused before any work: generator tuples n^generators
# of count_homs and boundary_hom_count_brute (dw check skips hom-count rows
# past it; their work is far less, see count_homs), labeling states.
MAX_HOM_TUPLES = 10 ** 8
MAX_ORACLE_STATES = 10 ** 8


def count_homs(G: FiniteGroup, pres: RelatorPresentation) -> int:
    """Exact |Hom(pi, G)| by meeting in the middle of the relator, for at
    most MAX_HOM_TUPLES generator tuples.

    The relator is cut into a head and a tail that share no generator (see
    _relator_cut), each half's product is histogrammed over G by
    _product_histogram, and a homomorphism is a head and a tail with
    inverse products: the count is sum_x head[x] tail[x^-1].  That is
    n^j |W_1| + n^(m-j) |W_2| gathers for halves W_1, W_2 with j and m - j of
    the m generators, instead of n^m |W| for every tuple.  Only the Cayley
    and inverse tables are read.
    """
    n, m = G.order, pres.generators
    if n ** m > MAX_HOM_TUPLES:
        raise InvariantError(f"{n}^{m} tuples exceed the cap of {MAX_HOM_TUPLES}")
    cut = _relator_cut(pres.word)
    head = _product_histogram(G, pres.word[:cut])
    tail = _product_histogram(G, pres.word[cut:])
    return int(head @ tail[G.inverse])


def _relator_cut(word: tuple) -> int:
    """The most balanced cut of a word in which every generator occurs twice:
    the position p nearest the middle such that word[:p] and word[p:] share
    no generator, or the end of the word when no inner p does.  The standard
    relators cut between two handles or two crosscaps; a single handle has no
    inner cut.
    """
    best, unpaired = len(word), set()
    for p, letter in enumerate(word[:-1], start=1):
        unpaired ^= {abs(letter)}
        if not unpaired and max(p, len(word) - p) < max(best, len(word) - best):
            best = p
    return best


def _product_histogram(G: FiniteGroup, word: tuple) -> np.ndarray:
    """hist[x]: the assignments of the generators of ``word`` under which it
    multiplies to x.

    The n^j assignments of its j generators are taken in blocks of
    consecutive indices: the last generators run through all n^inner values
    as arrays, computed once, with at most _BLOCK_ENTRIES labels, and the
    leading ones are fixed per block.  Each letter is one flat gather from
    the Cayley table.  The empty word has the single empty assignment.
    """
    n = G.order
    slot = {g: i for i, g in enumerate(sorted({abs(letter) for letter in word}))}
    m = len(slot)
    inner = 0
    while inner < m and n ** (inner + 1) * m <= _BLOCK_ENTRIES:
        inner += 1
    index = np.arange(n ** inner)
    trailing = [index // n ** (inner - 1 - j) % n for j in range(inner)]
    cay, inv = G.cayley.ravel(), G.inverse
    hist = np.zeros(n, dtype=np.int64)
    for lead in range(n ** (m - inner)):
        vals = [lead // n ** (m - inner - 1 - j) % n for j in range(m - inner)] + trailing
        h = 0
        for letter in word:
            g = vals[slot[abs(letter)]]
            h = cay.take(h * n + (g if letter > 0 else inv[g]))
        hist += np.bincount(np.ravel(h), minlength=n)
    return hist


def _handle_histogram(G: FiniteGroup, c: TwoCocycle, orientable: bool) -> np.ndarray:
    """H[y, k]: the handles (a, b) with [a, b] = y, or the crosscaps x with
    x^2 = y, whose cocycle exponent is k mod N.

    Each is read letter by letter from the identity: a handle reads a, b,
    a^-1, b^-1 and pays c(x, x^-1) back for x = a, b; a crosscap reads x, x.
    Each letter after the first adds exps[prefix, letter]; the first carries
    no c(1, g) term.
    """
    n, N = G.order, c.order
    cay, inv, exps = G.cayley.ravel(), G.inverse, c.exps.ravel()
    idx = np.arange(n)
    if orientable:
        a, b = idx[:, None], idx[None, :]
        pay_back = exps.take(idx * n + inv)
        h, k, letters = a, -(pay_back[a] + pay_back[b]), (b, inv[a], inv[b])
    else:
        h, k, letters = idx, 0, (idx,)
    for e in letters:
        at = h * n + e    # flat (prefix, letter) index into both tables
        k += exps.take(at)
        h = cay.take(at)
    k %= N
    k += h * N
    return np.bincount(k.ravel(), minlength=n * N).reshape(n, N)


def _times(G: FiniteGroup, c: TwoCocycle, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b in the twisted group ring Z[x]/(x^N - 1)^c[G], whose elements are
    histograms a[h, k], the coefficient of x^k e_h: (a b)[h y, k + l + c(h, y)]
    += a[h, k] b[y, l].  One matmul per shift d = l + c(h, y), by
    T[h y, h] = b[y, d - c(h, y)] filled in place: no temporary exceeds n^2
    entries, or n N for the result.
    """
    n, N = a.shape
    out, T = np.zeros_like(a), np.empty((n, n), dtype=np.int64)
    y, h = np.arange(n), np.arange(n)[:, None]
    for d in range(N):
        T[G.cayley, h] = b[y, (d - c.exps) % N]
        out += np.roll(T @ a, d, axis=1)
    return out


def _direct_counts(G: FiniteGroup, c: TwoCocycle, spec: SurfaceSpec) -> np.ndarray:
    """Histogram over k of homomorphisms pi_1(surface) -> G of weight zeta_N^k.

    The handles (crosscaps) sum to one ring element, the histogram H of
    _handle_histogram (O(n^2) work, O(n) for crosscaps), and the answer is
    the e_1 coefficient of H^g (see _times and dw_direct): H[0] at genus 1.
    Otherwise B = H^(g//2) by left-to-right squaring, A = B or B H for g even
    or odd, and [e_1] A B is read without the product: C[h, d] =
    B[h^-1, d - c(h, h^-1)], contracted as sum_d roll(C[:, d] @ A, d) in
    O(n N^2).  So genus 2 takes no product, and genus g at most 2 log2(g).
    """
    n, N, steps = G.order, c.order, spec.genus
    if steps == 0:
        return np.eye(1, N, dtype=np.int64)[0]
    generators = 2 * steps if spec.orientable else steps
    if (n > 1 and generators >= 63) or n ** generators >= 2 ** 63:
        raise InvariantError(f"{n}^{generators} homomorphism candidates overflow int64 counts")
    H = B = _handle_histogram(G, c, spec.orientable)
    if steps == 1:
        return H[0]
    for bit in bin(steps // 2)[3:]:
        B = _times(G, c, B, B)
        if bit == "1":
            B = _times(G, c, B, H)
    A = _times(G, c, B, H) if steps % 2 else B
    inv, shift = G.inverse, np.arange(N)
    C = B[inv[:, None], (shift - c.exps[np.arange(n), inv][:, None]) % N]   # C[h, d]
    M = C.T @ A   # M[d, k]: closed with d after k
    return M[shift[:, None], shift[None, :] - shift[:, None]].sum(axis=0)


def dw_direct(G: FiniteGroup, c: TwoCocycle, spec: SurfaceSpec) -> Fraction:
    """(1/#G) sum over homomorphisms of the cocycle weight.

    The homomorphism sum is [e_1] H^g for the sum H of the handles
    (crosscaps) of the standard relator in the twisted group ring, computed
    by repeated squaring (see _direct_counts): for order n and cocycle order
    N, about 2 log2(g) ring products of O(N n^2 + n^2 N^2) each plus one
    O(n N^2) read, in O(n^2 + n N) memory; genus 2 takes no product.
    In the twisted group algebra a handle's word equals zeta^k e_y whatever
    precedes it, so after the prefix h it adds exactly c(h, y) to the
    exponent it has from the identity.  That step uses associativity, so
    from genus 2 on the cocycle must be normalized, as every verified or
    constructed cocycle is; genus 0 and 1 read the definition letter by
    letter and are exact on any table.
    Counts are exact and reduce to an exact integer modulo Phi_N;
    #G^generators >= 2^63 is refused with InvariantError, decided on the
    exponent before any power is taken.  The sphere contributes the single
    trivial homomorphism, giving 1/#G for every cocycle.
    """
    if not spec.orientable and not c.is_sign_valued:
        raise InvariantError("non-orientable surfaces need a sign-valued cocycle")
    return Fraction(cyclotomic_integer(_direct_counts(G, c, spec), "direct route"), G.order)


# ---------------------------------------------------------------------------
# labeling-sum oracle on simplicial surfaces

def exact_contraction(group, modulus: int, n_vars: int, terms, plan):
    """Block-wise enumeration of the admissible labelings, summing their
    root-of-unity exponents.

    The labeling oracle's engine, kept apart from the state sum's frontier
    table so that the two stay independent checks of each other: a row is one
    partial labeling, rows are never merged, every labeled edge is kept and
    nothing is gauge-fixed.  The edges are labeled in plan.order, one level at
    a time, and the labels are stored by edge variable, one contiguous array
    of all rows per edge, so a slot reads one array.  Each level reads its
    step of plan.steps: the term that forces the edge, which holds it once,
    sets its label by one gather, l_s = (l_{s+1} l_{s+2})^-1, and otherwise
    the edge is free and every row repeats #G times.  Each term that closes
    there is checked: l_0 l_1, gathered from the flat Cayley table, must be
    the inverse of l_2, and exp2 at the same flat index joins the exponent
    (edges carry no weight of their own).  A block of rows goes through the
    levels breadth-first; one that would outgrow _BLOCK_ENTRIES labels is
    split and its parts are taken depth-first, so the live table stays
    bounded.  A plan with fixed (gauge-fixed) steps is refused: this engine
    labels every edge.
    Returns (counts, states_visited) with counts[k] the number of admissible
    labelings of total exponent k mod modulus and states_visited the rows
    generated, the nodes of the equivalent backtracking search.
    """
    if "fixed" in plan.kinds:
        raise InvariantError("the labeling enumeration does not gauge-fix; "
                             "it needs a plan without fixed steps")
    n = group.order
    label, pair = np.min_scalar_type(n - 1), np.min_scalar_type(n * n - 1)
    cay, inv = group.cayley.astype(label).ravel(), group.inverse.astype(label)

    def slot_label(lab, term, s, flip=False):
        row = lab[term.vars[s]]
        return inv.take(row) if term.inverted[s] != flip else row

    def flat(a, b):   # index of (a, b) in a flattened n x n table
        return a.astype(pair) * n + b

    # rows a block may hold when a free edge repeats them; one row always may
    step = max(1, _BLOCK_ENTRIES // (max(1, n_vars) * n))
    counts = np.zeros(modulus, dtype=np.int64)
    visited = 0
    # labels by edge: lab[var] holds the label of edge var in every row
    stack = [(0, np.zeros((n_vars, 1), dtype=label), np.zeros(1, dtype=np.int64))]
    while stack:
        pos, lab, expo = stack.pop()
        while pos < n_vars and len(expo):
            var, (forcing, closing, _) = plan.order[pos], plan.steps[pos]
            if forcing is None:
                if len(expo) > step:
                    stack.extend((pos, lab[:, i:i + step], expo[i:i + step])
                                 for i in reversed(range(0, len(expo), step)))
                    break
                lab = np.repeat(lab, n, axis=1)
                lab[var] = np.tile(np.arange(n, dtype=label), len(expo))
                expo = np.repeat(expo, n)
            else:
                ti, s = forcing
                term = terms[ti]
                x = cay.take(flat(slot_label(lab, term, (s + 1) % 3),
                                  slot_label(lab, term, (s + 2) % 3)))
                lab[var] = x if term.inverted[s] else inv.take(x)
            visited += len(expo)
            keep = None
            for ti in closing:
                term = terms[ti]
                index = flat(slot_label(lab, term, 0), slot_label(lab, term, 1))
                # l_0 l_1 l_2 = 1: l_0 l_1 is l_2^-1, slot 2 read with its flip negated
                ok = cay.take(index) == slot_label(lab, term, 2, flip=True)
                keep = ok if keep is None else keep & ok
                expo = expo + term.exp2.take(index)
            if keep is not None and not keep.all():
                lab, expo = lab.compress(keep, axis=1), expo[keep]
            pos += 1
        if pos == n_vars:
            counts += np.bincount(expo % modulus, minlength=modulus)
    return counts, visited


def dw_labeling_oracle(G: FiniteGroup, c: TwoCocycle, surf: SimplicialSurface) -> Fraction:
    """Sum over admissible edge labelings of a simplicial surface.

    A by-the-book reference evaluation: every oriented edge gets a group
    label with l(-e) = l(e)^-1, triangle boundaries multiply to the identity,
    and each triangle ABC (A<B<C in the vertex order) contributes
    c(l(AB), l(BC)) raised to +-1 according to whether its orientation runs
    A->B or not.  The sum has #G^(V-1) terms per homomorphism class, all of
    them enumerated by exact_contraction, so a plan whose state count
    (ContractionPlan.estimate_nodes) exceeds MAX_ORACLE_STATES is refused
    before any labeling is made.
    """
    n, N = G.order, c.order
    edges = surf.edges
    edge_index = {e: i for i, e in enumerate(edges)}
    inv = G.inverse
    reversed_table = -c.exps.T[np.ix_(inv, inv)] % N   # -c(l(AB), l(BC)) at (l(CB), l(BA))
    terms = []
    for tr in surf.triangles:
        pa = tr.index(min(tr))
        if tr[(pa + 1) % 3] == sorted(tr)[1]:  # orientation runs A -> B: slots AB, BC, CA
            first, table = pa, c.exps
        else:                                  # slots CB, BA, AC
            first, table = pa + 1, reversed_table
        sides = [(tr[s % 3], tr[(s + 1) % 3]) for s in range(first, first + 3)]
        terms.append(TriangleTerm(tuple(edge_index[(min(u, v), max(u, v))] for u, v in sides),
                                  tuple(u > v for u, v in sides), table))
    plan = plan_from_terms(len(edges), [term.vars for term in terms])
    estimate = plan.estimate_nodes(n)
    if estimate > MAX_ORACLE_STATES:
        raise InvariantError(
            f"labeling sum needs {estimate} states, beyond the limit {MAX_ORACLE_STATES}")
    counts, _ = exact_contraction(G, N, len(edges), terms, plan)
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


def mednykh_count(G: FiniteGroup, spec: SurfaceSpec) -> int:
    """|Hom(pi_1(orientable surface), G)| from ordinary irreducible dimensions:
    #G * sum over irreducibles of (#G/dim)^(2g-2), i.e. #G times the Verlinde
    value of the trivial cocycle."""
    if not spec.orientable:
        raise InvariantError("the homomorphism-count formula is for orientable surfaces")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
    val = G.order * verlinde(dec, spec)
    if val.denominator != 1:
        raise InvariantError(f"homomorphism count {val} is not an integer")
    return int(val)


def boundary_hom_count(G: FiniteGroup, genus: int, boundary: tuple) -> int:
    """Number of homomorphisms from a genus-g surface with k boundary circles
    sending the i-th boundary class into the conjugacy class of boundary[i].

    Character formula: #G^(2g-1) * prod |K_i| * sum over irreducibles of
    dim^(2-2g-k) * prod chi(g_i), evaluated exactly from the trivial-cocycle
    blocks: each chi(g_i) is its eigenvalue-multiplicity vector, an element of
    Z[x]/(x^M - 1) with M = exp(G); the products are summed with Fraction
    weights and reduced once modulo Phi_M.
    """
    k = len(boundary)
    if k < 1:
        raise InvariantError("at least one boundary circle is required")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
    classes = conjugacy_classes(G)
    total = 0
    for b in dec.blocks:
        prod = np.eye(1, b.multiplicities.shape[1], dtype=object)[0]
        for g in boundary:
            prod = sum(np.roll(prod, j) * int(m) for j, m in enumerate(b.multiplicities[g]))
        total = total + Fraction(b.dim) ** (2 - 2 * genus - k) * prod
    total = total * Fraction(G.order) ** (2 * genus - 1) * math.prod(
        classes.sizes[classes.class_of[g]] for g in boundary)
    den = math.lcm(*(t.denominator for t in total))
    val = Fraction(cyclotomic_integer([int(t * den) for t in total], "boundary formula"), den)
    if val.denominator != 1:
        raise InvariantError(f"boundary count {val} is not an integer")
    return int(val)


def boundary_hom_count_brute(G: FiniteGroup, genus: int, boundary: tuple) -> int:
    """Direct count of tuples (a_1,b_1,..,a_g,b_g,c_1,..,c_k) with
    prod [a_i,b_i] prod c_j = 1 and c_j conjugate to boundary[j], for at most
    MAX_HOM_TUPLES tuples (a_i, b_i).

    The commutator word is histogrammed over G by _product_histogram, the
    products c_1..c_k over the classes by one int64 np.add.at step per class,
    and the two are paired as in count_homs: sum_x head[x] tail[x^-1].
    """
    n, m = G.order, 2 * genus
    if (n > 1 and m >= MAX_HOM_TUPLES.bit_length()) or n ** m > MAX_HOM_TUPLES:
        raise InvariantError(f"{n}^{m} tuples exceed the cap of {MAX_HOM_TUPLES}")
    head = _product_histogram(G, relator_presentation(SurfaceSpec(True, genus)).word)
    classes = conjugacy_classes(G)
    tail = np.eye(1, n, dtype=np.int64)[0]
    for g in boundary:
        step = np.zeros(n, dtype=np.int64)
        np.add.at(step, G.cayley[:, classes.members(classes.class_of[g])], tail[:, None])
        tail = step
    return int(head @ tail[G.inverse])


# ---------------------------------------------------------------------------
# cross-check reports

def float_view(v: Fraction) -> list | None:
    """The complex float view [re, im] of an exact real value, or None when it
    does not fit a double; the exact value is reported beside it."""
    try:
        return [float(v), 0.0]
    except OverflowError:
        return None


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
            "values": {k: float_view(v) for k, v in self.values.items()},
            "exact": {k: str(v) for k, v in self.values.items()},
            "integrality": self.integrality,
            "diagnostics": self.diagnostics,
            "passed": self.passed,
            "states_visited": self.states_visited,
        }


def cross_check(G: FiniteGroup, c: TwoCocycle, spec: SurfaceSpec | GluedTriangulation,
                methods: tuple = ("direct", "statesum", "verlinde"),
                oracle: bool = False, seed: int = 0, workers: int = 1) -> InvariantReport:
    """Run the requested routes and compare; disagreement yields a failing
    report with all raw values rather than an exception.

    The values are exact Fractions, so the routes agree when they are equal,
    and for chi <= 0 the value must be an integer, >= 1 on orientable
    surfaces and >= 0 on non-orientable ones with an even number k of
    crosscaps.  At odd k a skew block (fs = -1) adds the negative term
    (-#G/dim)^(k-2), so the value may be negative there.  The Verlinde route
    also requires every block dimension to divide #G, as the degree of an
    irreducible projective representation does (diagnostics["dims_divide_order"]).

    ``spec`` may be a triangulation, which the state sum contracts; the
    other routes take its surface.  The state sum's plan goes to
    diagnostics["statesum_plan"].

    The labeling oracle runs on orientable:0 and orientable:1 only; asked for
    elsewhere, or refusing its input, it leaves the reason in
    diagnostics["labeling_oracle"], and the requested routes decide.

    ``seed`` and ``workers`` have no effect: the decomposition is a pure
    function of the algebra, and every route runs in this process.  Both are
    still accepted so that existing callers keep working.
    """
    values: dict = {}
    diagnostics: dict = {}
    states = None
    tri = None
    if isinstance(spec, GluedTriangulation):
        tri, spec = spec, spec.surface
    if not spec.orientable and not c.is_sign_valued:
        raise InvariantError("non-orientable surfaces need a sign-valued cocycle")
    if "direct" in methods:
        values["direct"] = dw_direct(G, c, spec)
    A = TwistedGroupAlgebra(G, c)
    if "statesum" in methods:
        if tri is None:
            # every gauge-fixed plan of the surface has at least 2 - chi
            # free edges: refuse before building a triangulation
            refuse_overflow(G.order, 2 - spec.chi)
            tri = standard_triangulation(spec)
        res = run_state_sum(A, tri)
        values["statesum"] = Fraction(G.order) ** (-spec.chi) * res.value
        states = res.states_visited
        diagnostics["statesum_plan"] = res.plan.to_json()
    if "verlinde" in methods:
        dec = wedderburn_decompose(A)
        values["verlinde"] = verlinde(dec, spec)
        r = c_regular_count(G, c)
        diagnostics["block_dims"] = list(dec.dims)
        diagnostics["fs"] = [b.fs for b in dec.blocks]
        diagnostics["block_count_matches_regular_classes"] = dec.block_count() == r
        diagnostics["dims_divide_order"] = all(G.order % d == 0 for d in dec.dims)
        diagnostics.update(dec.diagnostics)
    if oracle and spec.orientable and spec.genus <= 1:
        surf = tetrahedron_sphere() if spec.genus == 0 else seven_vertex_torus()
        try:
            values["labeling_oracle"] = dw_labeling_oracle(G, c, surf)
        except InvariantError as exc:     # refused as too large; the routes still count
            diagnostics["labeling_oracle"] = str(exc)
    elif oracle:
        diagnostics["labeling_oracle"] = "runs on orientable:0 and orientable:1 only"

    vals = list(values.values())
    integrality = None
    integrality_ok = True
    if spec.chi <= 0 and vals:
        v = values.get("direct", vals[0])
        positive_ok = v >= 1 if spec.orientable else v >= 0 or spec.genus % 2 == 1
        integrality = {"nearest": round(v), "integer": v.denominator == 1,
                       "positive_ok": positive_ok}
        integrality_ok = v.denominator == 1 and positive_ok
    passed = (len(set(vals)) <= 1 and integrality_ok
              and diagnostics.get("block_count_matches_regular_classes", True)
              and diagnostics.get("dims_divide_order", True))
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
    out = []
    for gspec, cname in entries:
        G = build_group(gspec)
        out.append((G, parse_cocycle(cname, G)))
    return out


def nonorientable_catalog_pairs() -> list:
    """(group, cocycle) pairs for the non-orientable suites: every sign-valued
    catalog entry on the supported groups, plus the trivial ones."""
    out = []
    for gspec in NONORIENTABLE_CATALOG_GROUPS:
        G = build_group(gspec)
        if gspec in ("cyclic:3", "quaternion:8"):
            out.append((G, trivial_cocycle(G)))
        else:
            out.extend((G, c) for c in sign_cocycles_catalog(G))
    return out


def sign_catalog_pairs() -> list:
    out = []
    for gspec in SIGN_CATALOG_GROUPS:
        G = build_group(gspec)
        out.extend((G, c) for c in sign_cocycles_catalog(G))
    return out
