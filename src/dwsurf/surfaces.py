"""Closed surfaces as combinatorial objects.

Two representations live here: glued triangulations (triangles with cyclically
ordered edge slots and a perfect matching of the 3t flags), which drive the
state sums, and simplicial surfaces with totally ordered vertices, which feed
the labeling-sum oracle.  Plus the standard relator presentations of surface
fundamental groups, Euler characteristic bookkeeping, and the two Pachner
moves.

A glued triangulation knows its own surface: one traversal of its triangles
across their edges checks that the gluing is connected and finds the flips
that orient it coherently, or a contradiction, which makes it non-orientable.
Orientability and the Euler characteristic then determine ``surface``, so no
caller declares it.

Flag conventions: flag f = 3*t + s is edge slot s of triangle t; with the
triangle's current orientation, slot s runs from corner s to corner s+1 (mod
3), and corner ids coincide with flag ids.  The reversal bit of a matched
flag pair records whether the two triangles' orientations induce opposite
directions on the shared edge; flipping a triangle relabels its slots s -> 2-s
and toggles the bits of its three pairs, which leaves the underlying gluing
unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .memo import shared


class SurfaceError(ValueError):
    """Invalid surface data or rejected move."""


@dataclass(frozen=True)
class SurfaceSpec:
    """A closed surface: orientable of genus g >= 0 or non-orientable of genus k >= 1."""

    orientable: bool
    genus: int

    def __post_init__(self):
        if self.orientable and self.genus < 0:
            raise SurfaceError("orientable genus must be >= 0")
        if not self.orientable and self.genus < 1:
            raise SurfaceError("non-orientable genus must be >= 1")

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    @property
    def name(self) -> str:
        return f"{'orientable' if self.orientable else 'nonorientable'}:{self.genus}"

    @classmethod
    def parse(cls, text: str) -> "SurfaceSpec":
        head, sep, arg = text.replace(" ", "").partition(":")
        if not sep or head not in ("orientable", "nonorientable"):
            raise SurfaceError(f"cannot parse surface descriptor {text!r}")
        try:
            genus = int(arg)
        except ValueError:
            raise SurfaceError(f"bad genus in surface descriptor {text!r}") from None
        return cls(head == "orientable", genus)


def parse_surface(text: str) -> SurfaceSpec | GluedTriangulation:
    """orientable:<g> | nonorientable:<k> | file:<path>, the last a
    triangulation JSON (GluedTriangulation.to_json)."""
    head, _, path = text.strip().partition(":")
    if head == "file":
        with open(path, encoding="utf-8") as fh:
            return GluedTriangulation.from_json(json.load(fh))
    return SurfaceSpec.parse(text)


@dataclass(frozen=True, eq=False)
class GluedTriangulation:
    """A closed surface built from triangles and a pairing of their flags."""

    n_triangles: int
    pairing: np.ndarray    # involution on 3t flags, no fixed points
    reversal: np.ndarray   # per flag; equal on matched pairs
    name: str = field(default="", kw_only=True)

    def __post_init__(self):
        t = self.n_triangles
        pairing = np.ascontiguousarray(np.asarray(self.pairing, dtype=np.int64))
        reversal = np.ascontiguousarray(np.asarray(self.reversal, dtype=bool))
        if t <= 0 or t % 2:
            raise SurfaceError("a closed surface needs a positive even number of triangles")
        nf = 3 * t
        if pairing.shape != (nf,) or reversal.shape != (nf,):
            raise SurfaceError("pairing and reversal must have one entry per flag")
        if ((pairing < 0) | (pairing >= nf)).any():
            raise SurfaceError(f"pairing entries must be flags 0..{nf - 1}")
        f = np.arange(nf)
        if (pairing == f).any() or not np.array_equal(pairing[pairing], f):
            raise SurfaceError("pairing must be a fixed-point-free involution on flags")
        if not np.array_equal(reversal[pairing], reversal):
            raise SurfaceError("reversal bits must agree on matched flags")
        pairing.setflags(write=False)
        reversal.setflags(write=False)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "reversal", reversal)
        object.__setattr__(self, "_flips", self._orienting_flips())

    def _orienting_flips(self) -> np.ndarray | None:
        """The triangle flips that make every glued pair reversal-type, with
        triangle 0 kept, or None when two paths demand different flips of one
        triangle; a self-glued pair must be reversal-type already.  The same
        traversal checks that the gluing is connected."""
        flips = np.full(self.n_triangles, -1, dtype=np.int64)
        flips[0] = 0
        stack = [0]
        orientable = True
        while stack:
            a = stack.pop()
            for f in range(3 * a, 3 * a + 3):
                b = int(self.pairing[f]) // 3
                want = flips[a] ^ (not self.reversal[f])
                if flips[b] < 0:
                    flips[b] = want
                    stack.append(b)
                elif flips[b] != want:
                    orientable = False
        if (flips < 0).any():
            raise SurfaceError("triangulation is not connected")
        return flips.astype(bool) if orientable else None

    @property
    def n_flags(self) -> int:
        return 3 * self.n_triangles

    @property
    def n_edges(self) -> int:
        return 3 * self.n_triangles // 2

    def edge_flags(self) -> list:
        """One (flag, partner) pair per edge, keyed by the smaller flag."""
        return [(f, int(self.pairing[f])) for f in range(self.n_flags) if f < self.pairing[f]]

    @cached_property
    def corner_vertices(self) -> np.ndarray:
        """The vertex of every corner, numbered 0..V-1 by first corner: one
        union-find over the corners, which each glued edge merges in pairs.
        Computed once per gluing, which is immutable."""
        parent = list(range(self.n_flags))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def head(f):
            return 3 * (f // 3) + (f % 3 + 1) % 3

        for f, (p, reversed_) in enumerate(zip(self.pairing.tolist(), self.reversal.tolist())):
            if f < p:
                ends = (head(p), p) if reversed_ else (p, head(p))
                for x, y in zip((f, head(f)), ends):
                    parent[find(x)] = find(y)
        ids = {}
        vertices = np.array([ids.setdefault(find(x), len(ids)) for x in range(self.n_flags)])
        vertices.setflags(write=False)
        return vertices

    @property
    def n_vertices(self) -> int:
        return int(self.corner_vertices.max()) + 1

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    @property
    def orientable(self) -> bool:
        return self._flips is not None

    def oriented(self) -> "GluedTriangulation":
        """The coherently oriented copy, with every reversal bit set."""
        if not self.orientable:
            raise SurfaceError(f"{self.surface.name} has no coherent orientation")
        return _apply_flips(self, self._flips)

    @property
    def surface(self) -> SurfaceSpec:
        chi = self.euler_characteristic
        return SurfaceSpec(self.orientable, (2 - chi) // 2 if self.orientable else 2 - chi)

    def to_json(self) -> dict:
        return {
            "triangles": self.n_triangles,
            "pairing": self.pairing.tolist(),
            "reversal": self.reversal.astype(int).tolist(),
            "surface": self.surface.name,
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data) -> "GluedTriangulation":
        """Inverse of to_json.  Any other shape raises SurfaceError, and so
        does a "surface" label that is not the surface of the gluing."""
        if not isinstance(data, dict):
            raise SurfaceError(f"a triangulation must be a JSON object, not "
                               f"{type(data).__name__}")
        for key in ("triangles", "pairing", "reversal"):
            if key not in data:
                raise SurfaceError(f"triangulation has no {key!r} field")
        if type(data["triangles"]) is not int:
            raise SurfaceError("'triangles' must be an integer")
        for key in ("pairing", "reversal"):
            if not isinstance(data[key], list) or any(type(x) not in (int, bool)
                                                      for x in data[key]):
                raise SurfaceError(f"{key!r} must be a list of integers")
        label = data.get("surface")
        if label is not None and not isinstance(label, str):
            raise SurfaceError("'surface' must be a surface descriptor string")
        tri = cls(data["triangles"], np.asarray(data["pairing"]),
                  np.asarray(data["reversal"], dtype=bool), name=data.get("name", ""))
        if label and SurfaceSpec.parse(label) != tri.surface:
            raise SurfaceError(f"the gluing is {tri.surface.name} "
                               f"(chi={tri.euler_characteristic}), not the declared {label}")
        return tri


def flip_triangle(tri: GluedTriangulation, index: int) -> GluedTriangulation:
    """Reverse the chosen orientation of one triangle (for invariance tests)."""
    flips = np.zeros(tri.n_triangles, dtype=bool)
    flips[index] = True
    return _apply_flips(tri, flips)


def _apply_flips(tri: GluedTriangulation, flips: np.ndarray) -> GluedTriangulation:
    if not flips.any():
        return tri
    nf = tri.n_flags
    flagmap = np.arange(nf)
    for a in np.flatnonzero(flips):
        flagmap[3 * a:3 * a + 3] = [3 * a + 2, 3 * a + 1, 3 * a]
    pairing = np.empty(nf, dtype=np.int64)
    reversal = np.empty(nf, dtype=bool)
    for f in range(nf):
        p = int(tri.pairing[f])
        pairing[flagmap[f]] = flagmap[p]
        reversal[flagmap[f]] = tri.reversal[f] ^ flips[f // 3] ^ flips[p // 3]
    return GluedTriangulation(tri.n_triangles, pairing, reversal, name=tri.name)


# ---------------------------------------------------------------------------
# builders

def standard_triangulation(spec: SurfaceSpec) -> GluedTriangulation:
    """A small glued triangulation of the requested surface.

    Sphere: double of a triangle (2 triangles).  Projective plane: square
    with word abab plus a diagonal.  Otherwise the fan of the polygon whose
    boundary word is the relator of relator_presentation(spec): the 4g-gon
    with word prod [a_i, b_i] (4g-2 triangles, one vertex) for orientable
    genus g >= 1, the 2k-gon with word a_1^2...a_k^2 for non-orientable
    genus k >= 2.
    """
    return shared(lambda: ("standard_triangulation", spec),
                  lambda: _standard_triangulation(spec))


def _standard_triangulation(spec: SurfaceSpec) -> GluedTriangulation:
    if spec.orientable and spec.genus == 0:
        pairing = np.array([3, 5, 4, 0, 2, 1])
        reversal = np.ones(6, dtype=bool)
        return GluedTriangulation(2, pairing, reversal, name="sphere")
    if not spec.orientable and spec.genus == 1:
        # square P0..P3 with word abab, cut along the diagonal P0-P2
        pairing = np.array([4, 5, 3, 2, 0, 1])
        reversal = np.array([False, False, True, True, False, False])
        return GluedTriangulation(2, pairing, reversal, name="projective-plane")
    name = f"genus{spec.genus}-fan" if spec.orientable else f"crosscap{spec.genus}-fan"
    return _fan_polygon(relator_presentation(spec).word, name)


def _fan_polygon(word: tuple, name: str) -> GluedTriangulation:
    """Triangulate a polygon with identified sides by the fan from vertex P0.

    Side p of the polygon carries letter word[p]; the two sides with the same
    letter are glued, with reversal exactly when the letter appears with
    opposite signs.  Triangle m = (P0, P_{m+1}, P_{m+2}) is oriented with the
    polygon, so consecutive triangles share reversal-type diagonals.
    """
    sides = len(word)
    if sides < 3:
        raise SurfaceError("polygon needs at least 3 sides for a fan")
    t = sides - 2
    pairing = np.full(3 * t, -1, dtype=np.int64)
    reversal = np.zeros(3 * t, dtype=bool)

    def side_flag(p):
        if p == 0:
            return 0               # triangle 0, slot 0
        if p == sides - 1:
            return 3 * (t - 1) + 2  # last triangle, slot 2
        return 3 * (p - 1) + 1      # triangle p-1, slot 1

    def glue(f1, f2, rev):
        pairing[f1], pairing[f2] = f2, f1
        reversal[f1] = reversal[f2] = rev

    for m in range(1, t):
        glue(3 * (m - 1) + 2, 3 * m, True)   # interior diagonal
    by_letter = {}
    for p, letter in enumerate(word):
        by_letter.setdefault(abs(letter), []).append((p, letter > 0))
    for letter, occ in by_letter.items():
        if len(occ) != 2:
            raise SurfaceError(f"letter {letter} must occur exactly twice in the boundary word")
        (p, sp), (q, sq) = occ
        glue(side_flag(p), side_flag(q), sp != sq)
    return GluedTriangulation(t, pairing, reversal, name=name)


# ---------------------------------------------------------------------------
# Pachner moves

def pachner_22(tri: GluedTriangulation, flag: int) -> GluedTriangulation:
    """Flip the diagonal of the quadrilateral formed by the edge's two triangles.

    Rejected when both flags of the edge lie on one triangle, where the flip
    would degenerate.
    """
    f = int(flag)
    p = int(tri.pairing[f])
    t1, t2 = f // 3, p // 3
    if t1 == t2:
        raise SurfaceError("cannot flip an edge whose two flags lie on one triangle")
    s1, s2 = f % 3, p % 3
    # quad boundary flags, following each triangle's cyclic order after the diagonal
    a, b = 3 * t1 + (s1 + 1) % 3, 3 * t1 + (s1 + 2) % 3
    c, e = 3 * t2 + (s2 + 1) % 3, 3 * t2 + (s2 + 2) % 3
    if tri.reversal[f]:
        # coherent orientations: new triangles (b, c, diag) and (e, a, diag')
        newmap = {b: 3 * t1, c: 3 * t1 + 1, e: 3 * t2, a: 3 * t2 + 1}
        toggled = set()
    else:
        # opposed orientations: (b, e-reversed, diag) and (c-reversed, a, diag')
        newmap = {b: 3 * t1, e: 3 * t1 + 1, c: 3 * t2, a: 3 * t2 + 1}
        toggled = {e, c}
    pairing = tri.pairing.copy()
    reversal = tri.reversal.copy()
    for old, new in newmap.items():
        q = int(tri.pairing[old])
        rev = bool(tri.reversal[old]) ^ (old in toggled) ^ (q in toggled)
        q_new = newmap.get(q, q)
        pairing[new], pairing[q_new] = q_new, new
        reversal[new] = reversal[q_new] = rev
    d1, d2 = 3 * t1 + 2, 3 * t2 + 2
    pairing[d1], pairing[d2] = d2, d1
    reversal[d1] = reversal[d2] = True
    return GluedTriangulation(tri.n_triangles, pairing, reversal, name=tri.name)


def pachner_13(tri: GluedTriangulation, triangle: int) -> GluedTriangulation:
    """Subdivide one triangle into three around a new interior vertex."""
    t = tri.n_triangles
    if not 0 <= triangle < t:
        raise SurfaceError(f"no triangle {triangle}")
    nf = 3 * t
    pairing = np.concatenate([tri.pairing, np.full(6, -1, dtype=np.int64)])
    reversal = np.concatenate([tri.reversal, np.zeros(6, dtype=bool)])
    e0, e1, e2 = 3 * triangle, 3 * triangle + 1, 3 * triangle + 2
    ta, tb, tc = triangle, t, t + 1
    # new triangles (e0, B->O, O->A), (e1, C->O, O->B), (e2, A->O, O->C)
    moves = {e1: 3 * tb, e2: 3 * tc}
    for old, new in moves.items():
        q = int(tri.pairing[old])
        q = moves.get(q, q)
        pairing[new], pairing[q] = q, new
        reversal[new] = reversal[q] = tri.reversal[old]
    internal = [(3 * ta + 1, 3 * tb + 2), (3 * tb + 1, 3 * tc + 2), (3 * tc + 1, 3 * ta + 2)]
    for f1, f2 in internal:
        pairing[f1], pairing[f2] = f2, f1
        reversal[f1] = reversal[f2] = True
    return GluedTriangulation(t + 2, pairing, reversal, name=tri.name)


def pachner_variants(tri: GluedTriangulation, n_variants: int, seed: int = 0) -> list:
    """Deterministic small perturbations of a triangulation by Pachner moves,
    all distinct gluings.

    Variant k applies 1 + (k mod 2) moves, alternating subdivisions
    and diagonal flips, with all choices drawn from random.Random(seed).  A
    variant whose gluing repeats the input or an earlier variant keeps
    drawing moves, in the same alternation, until it is new; subdivisions
    add triangles, so it ends.
    """
    def gluing(t):
        return t.pairing.tobytes(), t.reversal.tobytes()

    rng = random.Random(seed)
    seen = {gluing(tri)}
    out = []
    for k in range(n_variants):
        cur, step = tri, 0
        while step <= k % 2 or gluing(cur) in seen:
            if step % 2 == 0:
                cur = pachner_13(cur, rng.randrange(cur.n_triangles))
            else:
                flips = [f for f, p in cur.edge_flags() if f // 3 != p // 3]
                cur = pachner_22(cur, rng.choice(flips))
            step += 1
        seen.add(gluing(cur))
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# simplicial surfaces with ordered vertices

@dataclass(frozen=True, eq=False)
class SimplicialSurface:
    """A simplicial closed surface; vertex indices carry the total order.

    Triangles are oriented vertex triples: the cyclic order of the triple is
    the chosen orientation of the 2-simplex.
    """

    n_vertices: int
    triangles: tuple

    def __post_init__(self):
        edges = {}
        for tr in self.triangles:
            if len(set(tr)) != 3 or not all(0 <= v < self.n_vertices for v in tr):
                raise SurfaceError(f"bad triangle {tr}")
            for s in range(3):
                key = tuple(sorted((tr[s], tr[(s + 1) % 3])))
                edges[key] = edges.get(key, 0) + 1
        if any(count != 2 for count in edges.values()):
            raise SurfaceError("every edge must lie in exactly two triangles")
        object.__setattr__(self, "_edges", tuple(sorted(edges)))

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self._edges) + len(self.triangles)


def tetrahedron_sphere() -> SimplicialSurface:
    """Boundary of the tetrahedron, coherently oriented: (V,E,T) = (4,6,4)."""
    return SimplicialSurface(4, ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))


def seven_vertex_torus() -> SimplicialSurface:
    """The 7-vertex (Moebius-Kantor) torus on Z/7: (V,E,T) = (7,21,14)."""
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 3) % 7, (i + 2) % 7))
    return SimplicialSurface(7, tuple(tris))


# ---------------------------------------------------------------------------
# relator presentations of surface fundamental groups

@dataclass(frozen=True)
class RelatorPresentation:
    """Generators 1..m and a single relator word; letter -j means generator j inverted."""

    generators: int
    word: tuple

    def __post_init__(self):
        counts = {}
        for letter in self.word:
            if letter == 0 or abs(letter) > self.generators:
                raise SurfaceError(f"letter {letter} outside generator range")
            counts[abs(letter)] = counts.get(abs(letter), 0) + 1
        if self.generators and sorted(counts) != list(range(1, self.generators + 1)):
            raise SurfaceError("every generator must occur in the relator")
        if any(v != 2 for v in counts.values()):
            raise SurfaceError("every generator must occur exactly twice in the relator")


def relator_presentation(spec: SurfaceSpec) -> RelatorPresentation:
    """Standard one-relator presentation; the sphere gets the empty (trivial) one."""
    if spec.orientable:
        word = []
        for k in range(spec.genus):
            a, b = 2 * k + 1, 2 * k + 2
            word += [a, b, -a, -b]
        return RelatorPresentation(2 * spec.genus, tuple(word))
    word = []
    for k in range(spec.genus):
        word += [k + 1, k + 1]
    return RelatorPresentation(spec.genus, tuple(word))
