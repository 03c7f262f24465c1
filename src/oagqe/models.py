"""Concrete finite-rank ordered abelian groups and their exact semantics.

A model is a lexicographic product of rank-one building blocks (Z, Q, or a
localization Z[1/m]); the component with the highest index is the most
significant.  Optionally the all-Z models can be restricted to the subgroup of
elements whose coordinate sum lies in n*Z.

Convex subgroups of such a model are exactly the coordinate cuts
H_cut = { a : coords[cut:] all zero } for cut in 0..K, totally ordered by
inclusion, which makes every spine finite and exactly computable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .syntax import AC, AE, AEP, Sort, sort_ac, sort_ae, sort_aep


# ---------------------------------------------------------------------------
# Components

@dataclass(frozen=True)
class IntComp:
    def __repr__(self):
        return "Z"


@dataclass(frozen=True)
class RatComp:
    def __repr__(self):
        return "Q"


@dataclass(frozen=True)
class LocComp:
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("localization parameter must be >= 2")

    def __repr__(self):
        return "Z[1/%d]" % self.m


Component = Union[IntComp, RatComp, LocComp]

Element = tuple[Fraction, ...]


def _primes_of(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def comp_contains(comp: Component, v: Fraction) -> bool:
    """Whether v lies in the component's domain."""

    if isinstance(comp, IntComp):
        return v.denominator == 1
    if isinstance(comp, RatComp):
        return True
    d = v.denominator
    for p in _primes_of(comp.m):
        while d % p == 0:
            d //= p
    return d == 1


def comp_divisible(comp: Component, v: Fraction, m: int) -> bool:
    """Whether v lies in m * (component domain)."""

    if m == 1:
        return comp_contains(comp, v)
    return comp_contains(comp, v / m)


def comp_nontrivial_quotient(comp: Component, n: int) -> bool:
    """Whether D/nD is nontrivial for the component domain D."""

    if n == 1 or isinstance(comp, RatComp):
        return False
    if isinstance(comp, IntComp):
        return True
    return any(comp.m % p != 0 for p in _primes_of(n))


# ---------------------------------------------------------------------------
# Models

@dataclass(frozen=True)
class LexModel:
    comps: tuple[Component, ...]
    sum_mod: Optional[int] = None

    def __post_init__(self):
        if not self.comps:
            raise ValueError("need at least one component")
        if self.sum_mod is not None:
            if self.sum_mod < 2:
                raise ValueError("sum constraint modulus must be >= 2")
            if not all(isinstance(c, IntComp) for c in self.comps):
                raise ValueError("sum constraint requires all-Z components")

    @property
    def rank(self) -> int:
        return len(self.comps)

    # -- elements ----------------------------------------------------------

    def element(self, coords: Sequence) -> Element:
        e = tuple(Fraction(c) for c in coords)
        if len(e) != self.rank:
            raise ValueError("expected %d coordinates" % self.rank)
        for comp, v in zip(self.comps, e):
            if not comp_contains(comp, v):
                raise ValueError("coordinate %s outside %r" % (v, comp))
        if self.sum_mod is not None and sum(e) % self.sum_mod != 0:
            raise ValueError("coordinate sum violates the sum constraint")
        return e

    def zero(self) -> Element:
        return (Fraction(0),) * self.rank

    def add(self, a: Element, b: Element) -> Element:
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def sub(self, a: Element, b: Element) -> Element:
        return tuple(x - y for x, y in zip(a, b))

    def smul(self, k: int, a: Element) -> Element:
        return tuple(k * x for x in a)

    def significance(self, a: Element) -> int:
        """1-based index of the most significant nonzero coordinate; 0 for 0."""

        for i in range(self.rank - 1, -1, -1):
            if a[i] != 0:
                return i + 1
        return 0

    def sign(self, a: Element) -> int:
        v = self.significance(a)
        if v == 0:
            return 0
        return 1 if a[v - 1] > 0 else -1

    def cmp(self, a: Element, b: Element) -> int:
        return self.sign(self.sub(a, b))

    def proj_sign(self, a: Element, cut: int) -> int:
        """Sign of the image of a in G / H_cut."""

        for i in range(self.rank - 1, cut - 1, -1):
            if a[i] != 0:
                return 1 if a[i] > 0 else -1
        return 0

    # -- convex subgroups and cosets ---------------------------------------

    def in_cut(self, a: Element, cut: int) -> bool:
        """a in H_cut."""

        return all(a[i] == 0 for i in range(cut, self.rank))

    def member(self, a: Element, cut: int, m: int) -> bool:
        """a in H_cut + mG, exact.

        With a sum constraint and cut >= 1 the sum residue can be absorbed by
        a coordinate below the cut, so only componentwise divisibility above
        the cut matters; at cut 0 the residue of the quotient vector must
        itself vanish.
        """

        if cut >= self.rank:
            return True
        if self.sum_mod is not None and cut == 0:
            if any(a[i] % m != 0 for i in range(self.rank)):
                return False
            return sum(a[i] // m for i in range(self.rank)) % self.sum_mod == 0
        return all(
            comp_divisible(self.comps[i], a[i], m)
            for i in range(cut, self.rank)
        )

    def member_bracket(self, a: Element, cut: int, m: int, mp: int) -> bool:
        """a in (limit group of exponent mp over H_cut) + mG.

        The limit group is the intersection of H + mp*G over convex H
        strictly containing H_cut; with totally ordered cuts that is
        H_{cut+1} + mp*G, and adding mG merges the moduli by gcd.
        """

        if cut >= self.rank:
            return True
        return self.member(a, cut + 1, gcd(m, mp))

    def quotient_discrete(self, cut: int) -> bool:
        """Whether G / H_cut has a minimal positive element."""

        if cut >= self.rank:
            return False
        return isinstance(self.comps[cut], IntComp)

    def minpos_rep(self, cut: int) -> Optional[Element]:
        """An element of G whose image in G / H_cut is the minimal positive
        element, or None when the quotient is dense or trivial."""

        if not self.quotient_discrete(cut):
            return None
        coords = [Fraction(0)] * self.rank
        coords[cut] = Fraction(1)
        if self.sum_mod is not None:
            if cut == 0:
                coords[0] = Fraction(self.sum_mod)
            else:
                coords[0] = Fraction(self.sum_mod - 1)
        return tuple(coords)

    def __repr__(self):
        tail = "" if self.sum_mod is None else " sum %d" % self.sum_mod
        return "LexModel(%s%s)" % ("+".join(map(repr, self.comps)), tail)


# ---------------------------------------------------------------------------
# Spines

@dataclass(frozen=True)
class SpinePoint:
    sort: Sort
    cut: int

    @property
    def class_id(self) -> str:
        return "g%d" % self.cut


@lru_cache(maxsize=None)
def _ac_cuts(model: LexModel, n: int) -> tuple[int, ...]:
    cuts = {0}
    for i, comp in enumerate(model.comps):
        if comp_nontrivial_quotient(comp, n):
            cuts.add(i)
    return tuple(sorted(cuts))


@lru_cache(maxsize=None)
def spine(model: LexModel, sort: Sort) -> tuple[SpinePoint, ...]:
    """The realized spine points of a sort, ascending by group inclusion."""

    if sort.is_main:
        raise ValueError("spine is defined for auxiliary sorts only")
    n = sort.n
    if sort.kind == AC:
        return tuple(SpinePoint(sort, c) for c in _ac_cuts(model, n))
    if sort.kind == AE:
        # the union of Ac-groups avoiding b is again a realized Ac-cut (or
        # {0} for b = 0), and every Ac-cut arises this way
        return tuple(SpinePoint(sort, c) for c in _ac_cuts(model, n))
    if sort.kind == AEP:
        cuts = _ac_cuts(model, n)
        return tuple(SpinePoint(sort, c) for c in cuts[1:] + (model.rank,))
    raise ValueError("unknown sort %r" % (sort,))


def spine_min(model: LexModel, sort: Sort) -> SpinePoint:
    return spine(model, sort)[0]


def ac_class_of(model: LexModel, a: Element, n: int) -> SpinePoint:
    """The Ac(n)-point of a: the largest cut c with a outside H_c + nG
    ({0} when a is in nG)."""

    cuts = [c for c in range(model.rank + 1) if not model.member(a, c, n)]
    cut = max(cuts) if cuts else 0
    pts = {p.cut: p for p in spine(model, sort_ac(n))}
    if cut not in pts:
        raise AssertionError("canonical class lands outside the spine")
    return pts[cut]


def ae_class_of(model: LexModel, a: Element, n: int) -> SpinePoint:
    """The Ae(n)-point of a: the union of the Ac(n)-groups avoiding a."""

    v = model.significance(a)  # a not in H_cut  <=>  cut <= v - 1 ... cut < v
    best = 0
    for c in _ac_cuts(model, n):
        if c < v:
            best = c
    pts = {p.cut: p for p in spine(model, sort_ae(n))}
    return pts[best]


def aep_of(model: LexModel, beta: SpinePoint) -> SpinePoint:
    """The successor point: smallest realized Ac-group strictly containing
    the group of beta, or G."""

    if beta.sort.kind != AE:
        raise ValueError("successor applies to Ae points")
    n = beta.sort.n
    succ = model.rank
    for c in _ac_cuts(model, n):
        if c > beta.cut:
            succ = c
            break
    return SpinePoint(sort_aep(n), succ)


def definitional_spine_oracle(model: LexModel, sort: Sort,
                              samples: Iterable[Element]) -> list[int]:
    """Realized groups (as cuts) computed literally from the definitions on
    the given samples; cross-check for spine()."""

    n = sort.n
    realized: set[int] = set()
    if sort.kind == AC:
        for a in samples:
            cuts = [c for c in range(model.rank + 1)
                    if not model.member(a, c, n)]
            realized.add(max(cuts) if cuts else 0)
        return sorted(realized)
    if sort.kind == AE:
        ac = definitional_spine_oracle(model, sort_ac(n), samples)
        for b in itertools.chain([model.zero()], samples):
            v = model.significance(b)
            avoid = [c for c in ac if c < v]
            realized.add(max(avoid) if avoid else 0)
        return sorted(realized)
    if sort.kind == AEP:
        ac = definitional_spine_oracle(model, sort_ac(n), samples)
        ae = definitional_spine_oracle(model, sort_ae(n), samples)
        for b in ae:
            above = [c for c in ac if c > b]
            realized.add(min(above) if above else model.rank)
        return sorted(realized)
    raise ValueError("unknown sort %r" % (sort,))


def residue_box(model: LexModel, bound: int) -> Iterable[Element]:
    """All residue representatives with coordinates in 0..bound-1 (rationals
    get a small denominator sweep), restricted to the model's domain."""

    ranges = []
    for comp in model.comps:
        if isinstance(comp, IntComp):
            ranges.append([Fraction(v) for v in range(bound)])
        elif isinstance(comp, RatComp):
            ranges.append([Fraction(v) for v in range(bound)]
                          + [Fraction(1, 2), Fraction(1, 3)])
        else:
            ranges.append([Fraction(v) for v in range(bound)]
                          + [Fraction(1, comp.m)])
    for coords in itertools.product(*ranges):
        if model.sum_mod is not None and sum(coords) % model.sum_mod != 0:
            continue
        yield coords


# ---------------------------------------------------------------------------
# Dimension queries

TOPG = "TopG"

_INF = None  # s = None encodes the exponent infinity


def _eff_cut(model: LexModel, cut: int, s) -> int:
    """The cut c with (bracket group at exponent p^s over H_cut) + pG =
    H_c + pG."""

    if s is _INF:
        return cut
    if s == 0:
        return model.rank
    return min(cut + 1, model.rank)


def _count_p_quotients(model: LexModel, p: int, lo: int, hi: int) -> int:
    return sum(
        1 for i in range(lo, hi)
        if comp_nontrivial_quotient(model.comps[i], p)
    )


def _constrained_coset_count(model: LexModel, cut: int, p: int) -> int:
    """Number of residues of H_cut + pG inside G modulo p*n*Z^K."""

    n = model.sum_mod
    count = 0
    for coords in itertools.product(range(p * n), repeat=model.rank):
        if sum(coords) % n != 0:
            continue
        e = tuple(Fraction(c) for c in coords)
        if model.member(e, cut, p):
            count += 1
    return count


def dim_query(model: LexModel, p: int, lower, upper) -> int:
    """F_p-dimension of (upper bracket group + pG) / (lower bracket group +
    pG); lower/upper are (SpinePoint, s) with s None meaning infinity, upper
    may be TOPG."""

    a1, s1 = lower
    if upper == TOPG:
        c_up = model.rank
        ok = True
    else:
        a2, s2 = upper
        c_up = _eff_cut(model, a2.cut, s2)
        k1 = (s1 if s1 is not _INF else float("inf"))
        k2 = (s2 if s2 is not _INF else float("inf"))
        ok = a1.cut < a2.cut or (a1.cut == a2.cut and k1 >= k2)
    if not ok:
        raise ValueError("chain condition violated")
    c_lo = _eff_cut(model, a1.cut, s1)
    if c_lo > c_up:
        raise ValueError("chain condition violated")
    if model.sum_mod is None:
        return _count_p_quotients(model, p, c_lo, c_up)
    n_lo = _constrained_coset_count(model, c_lo, p)
    n_up = _constrained_coset_count(model, c_up, p)
    index, rem = divmod(n_up, n_lo)
    if rem:
        raise AssertionError("coset counts not nested")
    dim = 0
    while index % p == 0:
        index //= p
        dim += 1
    if index != 1:
        raise AssertionError("quotient not elementary abelian")
    return dim


# ---------------------------------------------------------------------------
# Model description files

def parse_model(text: str) -> LexModel:
    """Model file: one component per line ("Z" | "Q" | "Z[1/m]"), first line
    least significant; optional "sum n" line."""

    comps: list[Component] = []
    sum_mod = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("sum"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError("line %d: expected 'sum n'" % lineno)
            sum_mod = int(parts[1])
            continue
        if line == "Z":
            comps.append(IntComp())
        elif line == "Q":
            comps.append(RatComp())
        elif line.startswith("Z[1/") and line.endswith("]"):
            body = line[4:-1]
            if not body.isdigit():
                raise ValueError("line %d: bad localization" % lineno)
            comps.append(LocComp(int(body)))
        else:
            raise ValueError("line %d: unknown component %r" % (lineno, line))
    return LexModel(tuple(comps), sum_mod)


def format_model(model: LexModel) -> str:
    lines = [repr(c) for c in model.comps]
    if model.sum_mod is not None:
        lines.append("sum %d" % model.sum_mod)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sampling

def sample_element(model: LexModel, rng, radius: int = 20,
                   denoms: Sequence[int] = (1, 1, 1, 2, 3)) -> Element:
    coords = []
    for comp in model.comps:
        num = rng.randint(-radius, radius)
        if isinstance(comp, IntComp):
            coords.append(Fraction(num))
        elif isinstance(comp, RatComp):
            coords.append(Fraction(num, rng.choice(list(denoms))))
        else:
            coords.append(Fraction(num, comp.m ** rng.randint(0, 2)))
    if model.sum_mod is not None:
        rem = sum(coords) % model.sum_mod
        if rem:
            coords[0] += model.sum_mod - rem
    return tuple(coords)
