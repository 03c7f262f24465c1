"""Complete witness search for a single main-sort existential.

A grounded matrix is compiled into per-clause records over the unknown
element x: lexicographic sign conditions beyond a cut, componentwise
divisibility conditions, single-coordinate non-divisibility conditions, and
(for sum-constrained models) global sum-residue conditions.

The search runs coordinate by coordinate from the most significant one down.
At each coordinate the breakpoints of the live sign conditions split the
component domain into finitely many regions; within one region and one
residue class modulo the lcm of all moduli, any two choices are
interchangeable for everything that remains, so trying one representative per
region and residue class is a complete decision procedure, not a heuristic.

Coordinates follow the model (see `models.Coord`): on a Z component the
search, its candidates and its integral breakpoints are Python `int`s; on
Q and Z[1/m] components, and at a breakpoint that falls between two
integers, they are `Fraction`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .models import (
    Coord, Element, IntComp, LexModel, RatComp, comp_contains, comp_divisible,
)


class SolverLimit(Exception):
    """Raised when the search exceeds its node budget."""


# search nodes one solve_clause call may visit before it raises SolverLimit
SEARCH_BUDGET = 200_000


# ---------------------------------------------------------------------------
# Records

@dataclass(frozen=True)
class Lex:
    """sign of the image of r*x + u in G / H_cut, constrained by rel:
    lt (< 0), ge (>= 0), eq (= 0), ne (!= 0)."""

    rel: str
    cut: int
    r: int
    u: Element


@dataclass(frozen=True)
class Div:
    """r*x + u in H_cut + mG: componentwise divisibility above the cut."""

    cut: int
    m: int
    r: int
    u: Element


@dataclass(frozen=True)
class NDiv:
    """coordinate `coord` of r*x + u not divisible by m in its component."""

    coord: int
    m: int
    r: int
    u: Element


@dataclass(frozen=True)
class SumCong:
    """For sum-constrained models: every coordinate of r*x + u divisible by
    m and the sum of the quotients congruent to 0 mod the sum modulus
    (incongruent when negate is set)."""

    m: int
    r: int
    u: Element
    negate: bool


@dataclass
class Clause:
    lex: list
    div: list
    ndiv: list
    sums: list


def clause_modulus(model: LexModel, cl: Clause) -> int:
    mods = [1]
    mods += [d.m for d in cl.div]
    mods += [d.m for d in cl.ndiv]
    if model.sum_mod is not None:
        mods.append(model.sum_mod)
        mods += [s.m * model.sum_mod for s in cl.sums]
    return math.lcm(*mods)


# ---------------------------------------------------------------------------
# Candidate generation per coordinate

def _breakpoint(comp, r: int, u: Coord) -> Coord:
    """The root -u / r of r*x + u: an int when it is an integer on a Z
    component, else a Fraction."""

    if isinstance(comp, IntComp):
        q, rem = divmod(-u, r)
        if not rem:
            return q
    return Fraction(-u, r)


def _ints_window(lo: Optional[Coord], hi: Optional[Coord], width: int):
    """Up to `width` consecutive integers inside the open interval (lo, hi)."""

    def ceil_excl(q: Coord) -> int:
        n = math.ceil(q)
        return n + 1 if n == q else n

    def floor_excl(q: Coord) -> int:
        n = math.floor(q)
        return n - 1 if n == q else n

    if lo is None and hi is None:
        return range(0, width)
    if lo is None:
        top = floor_excl(hi)
        return range(top - width + 1, top + 1)
    if hi is None:
        bot = ceil_excl(lo)
        return range(bot, bot + width)
    bot, top = ceil_excl(lo), floor_excl(hi)
    if top < bot:
        return range(0, 0)
    return range(bot, min(top, bot + width - 1) + 1)


def _coordinate_candidates(comp, region, check, L: int, want_all: bool):
    """Values of the component domain inside the region passing `check`; one
    representative suffices unless want_all (sum threading) is set."""

    kind, *bounds = region
    if kind == "pt":
        (b,) = bounds
        if comp_contains(comp, b) and check(b):
            return [b]
        return []
    lo, hi = bounds
    if isinstance(comp, IntComp):
        out = []
        for v in _ints_window(lo, hi, L):
            if check(v):
                if not want_all:
                    return [v]
                out.append(v)
        return out
    if isinstance(comp, RatComp):
        if lo is None and hi is None:
            v = Fraction(0)
        elif lo is None:
            v = hi - 1
        elif hi is None:
            v = lo + 1
        else:
            v = (lo + hi) / 2
        return [v] if check(v) else []
    # localization Z[1/ml]: refine the grid until the window holds a full
    # period of the (periodic) residue conditions
    ml = comp.m
    t = 0
    while True:
        scale = ml ** t
        slo = None if lo is None else lo * scale
        shi = None if hi is None else hi * scale
        window = _ints_window(slo, shi, L)
        full = (slo is None or shi is None
                or shi - slo > L + 1)
        for n in window:
            v = Fraction(n, scale)
            if check(v):
                return [v]
        if full:
            return []
        t += 1
        if t > 64:
            raise SolverLimit("grid refinement runaway")


# ---------------------------------------------------------------------------
# Depth-first search

_ALLOWED = {
    "lt": (True, False),   # (negative ok, positive ok)
    "ge": (False, True),
    "ne": (True, True),
    "eq": (False, False),
}

_FINAL_OK = {"ge": True, "eq": True, "lt": False, "ne": False}


class _Search:
    def __init__(self, model: LexModel, cl: Clause):
        self.model = model
        self.cl = cl
        self.L = clause_modulus(model, cl)
        self.nodes = 0
        self.want_all = model.sum_mod is not None
        self.zero = model.zero()

    def run(self) -> Optional[Element]:
        undecided = []
        for i, rec in enumerate(self.cl.lex):
            if rec.cut >= self.model.rank:
                if not _FINAL_OK[rec.rel]:
                    return None
            else:
                undecided.append(i)
        return self._dfs(self.model.rank - 1, frozenset(undecided),
                         list(self.zero))

    def _dfs(self, j: int, undecided: frozenset, coords: list):
        self.nodes += 1
        if self.nodes > SEARCH_BUDGET:
            raise SolverLimit("search budget exceeded")
        model, cl = self.model, self.cl
        if j < 0:
            if undecided:
                raise AssertionError("records outlived their coordinates")
            return self._check_sums(coords)
        live = [i for i in undecided if cl.lex[i].cut <= j]
        comp = model.comps[j]
        bps = sorted({_breakpoint(comp, cl.lex[i].r, cl.lex[i].u[j])
                      for i in live})
        regions = []
        if not bps:
            regions.append(("iv", None, None))
        else:
            regions.append(("iv", None, bps[0]))
            for a, b in zip(bps, bps[1:]):
                regions.append(("pt", a))
                regions.append(("iv", a, b))
            regions.append(("pt", bps[-1]))
            regions.append(("iv", bps[-1], None))

        pos = [d for d in cl.div if d.cut <= j and d.m > 1]
        pos += [s for s in cl.sums]
        negs = [d for d in cl.ndiv if d.coord == j]

        def check(x: Coord) -> bool:
            for d in pos:
                if not comp_divisible(comp, d.r * x + d.u[j], d.m):
                    return False
            for d in negs:
                if comp_divisible(comp, d.r * x + d.u[j], d.m):
                    return False
            return True

        for region in regions:
            for x in _coordinate_candidates(comp, region, check, self.L,
                                            self.want_all):
                nxt = self._step(j, x, live, undecided)
                if nxt is None:
                    continue
                coords[j] = x
                res = self._dfs(j - 1, nxt, coords)
                if res is not None:
                    return res
                coords[j] = self.zero[j]
        return None

    def _step(self, j, x, live, undecided):
        cl = self.cl
        out = set(undecided)
        for i in live:
            rec = cl.lex[i]
            w = rec.r * x + rec.u[j]
            if w == 0:
                continue
            neg_ok, pos_ok = _ALLOWED[rec.rel]
            if (w < 0 and not neg_ok) or (w > 0 and not pos_ok):
                return None
            out.discard(i)
        # records whose last coordinate this was are now final
        for i in list(out):
            rec = cl.lex[i]
            if rec.cut == j:
                if not _FINAL_OK[rec.rel]:
                    return None
                out.discard(i)
        return frozenset(out)

    def _check_sums(self, coords) -> Optional[Element]:
        model, cl = self.model, self.cl
        e = tuple(coords)
        for s in cl.sums:
            total = 0
            for i in range(model.rank):
                w = s.r * coords[i] + s.u[i]
                # sum models are all-Z: test divisibility, then divide
                # exactly with //, as / would give a float
                if w % s.m:
                    raise AssertionError("sum record without divisibility")
                total += w // s.m
            hit = total % model.sum_mod == 0
            if hit == s.negate:
                return None
        return e


def solve_clause(model: LexModel, cl: Clause) -> Optional[Element]:
    """A witness x with all records of the clause satisfied, or None if no
    element of the model satisfies them (complete)."""

    return _Search(model, cl).run()
