"""Concrete finite-rank ordered abelian groups and their exact semantics.

A model is a lexicographic product of rank-one building blocks (Z, Q, or a
localization Z[1/m]); the component with the highest index is the most
significant.  Optionally the all-Z models can be restricted to the subgroup of
elements whose coordinate sum lies in n*Z.  An element is the tuple of its
coordinates, least significant first: an `int` on a Z component and a
`Fraction` on a Q or Z[1/m] component, so arithmetic stays exact and the
all-Z models never leave the integers.

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
from typing import Optional, Sequence, Union

from .syntax import AC, AE, AEP, Sort, sort_aep


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

# a coordinate is an int on Z and a Fraction on Q and Z[1/m]
Coord = Union[int, Fraction]
Element = tuple[Coord, ...]


def prime_power_parts(m: int) -> list[tuple[int, int]]:
    """[(p, r), ...] with m the product of the p**r, primes ascending; []
    for m = 1.  The one factorisation behind the Chinese-remainder splits,
    the canonical-map exponents and the localization tests."""

    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            out.append((p, r))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def comp_contains(comp: Component, v: Coord) -> bool:
    """Whether v lies in the component's domain."""

    if isinstance(comp, IntComp):
        return v.denominator == 1
    if isinstance(comp, RatComp):
        return True
    d = v.denominator
    for p, _ in prime_power_parts(comp.m):
        while d % p == 0:
            d //= p
    return d == 1


def comp_divisible(comp: Component, v: Coord, m: int) -> bool:
    """Whether v lies in m * (component domain)."""

    if isinstance(comp, IntComp):
        return v.denominator == 1 and v % m == 0
    # v / m as a Fraction: an int divided by m would give a float
    return comp_contains(comp, Fraction(v, m))


def comp_nontrivial_quotient(comp: Component, n: int) -> bool:
    """Whether D/nD is nontrivial for the component domain D."""

    if n == 1 or isinstance(comp, RatComp):
        return False
    if isinstance(comp, IntComp):
        return True
    return any(comp.m % p != 0 for p, _ in prime_power_parts(n))


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
        # built once: not a field, so == and hash read the fields alone
        object.__setattr__(self, "_zero", tuple(
            0 if isinstance(c, IntComp) else Fraction(0) for c in self.comps))

    @property
    def rank(self) -> int:
        return len(self.comps)

    # -- elements ----------------------------------------------------------

    def element(self, coords: Sequence) -> Element:
        """The element with the given coordinates (numbers or strings that
        Fraction reads), each checked against its component."""

        if len(coords) != self.rank:
            raise ValueError("expected %d coordinates" % self.rank)
        e = []
        for comp, c in zip(self.comps, coords):
            v = c if type(c) is int else Fraction(c)
            if not comp_contains(comp, v):
                raise ValueError("coordinate %s outside %r" % (v, comp))
            e.append(int(v) if isinstance(comp, IntComp) else Fraction(v))
        if self.sum_mod is not None and sum(e) % self.sum_mod != 0:
            raise ValueError("coordinate sum violates the sum constraint")
        return tuple(e)

    def zero(self) -> Element:
        return self._zero

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
        coords = list(self.zero())
        coords[cut] = 1
        if self.sum_mod is not None:
            if cut == 0:
                coords[0] = self.sum_mod
            else:
                coords[0] = self.sum_mod - 1
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
    if sort.kind in (AC, AE):
        # Ae points are Ac-cuts too: the union of Ac-groups avoiding b is
        # again a realized Ac-cut (or {0} for b = 0), and every Ac-cut
        # arises this way
        return tuple(SpinePoint(sort, c) for c in _ac_cuts(model, n))
    if sort.kind == AEP:
        cuts = _ac_cuts(model, n)
        return tuple(SpinePoint(sort, c) for c in cuts[1:] + (model.rank,))
    raise ValueError("unknown sort %r" % (sort,))


def spine_min(model: LexModel, sort: Sort) -> SpinePoint:
    return spine(model, sort)[0]


def h_cut(model: LexModel, a: Element, n: int) -> int:
    """Largest cut c with a outside H_c + nG; 0 when a is in nG."""

    cuts = [c for c in range(model.rank + 1) if not model.member(a, c, n)]
    return max(cuts) if cuts else 0


def ae_cut(model: LexModel, a: Element, n: int) -> int:
    """Cut of the union of the realized Ac(n)-groups avoiding a."""

    v = model.significance(a)  # a not in H_cut  <=>  cut <= v - 1 ... cut < v
    best = 0
    for c in _ac_cuts(model, n):
        if c < v:
            best = c
    return best


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
        if model.member(coords, cut, p):
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
    dim = dict(prime_power_parts(index)).get(p, 0)
    if index != p ** dim:
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


# ---------------------------------------------------------------------------
# Sampling

def sample_element(model: LexModel, rng, radius: int = 20,
                   denoms: Sequence[int] = (1, 1, 1, 2, 3)) -> Element:
    coords = []
    for comp in model.comps:
        num = rng.randint(-radius, radius)
        if isinstance(comp, IntComp):
            coords.append(num)
        elif isinstance(comp, RatComp):
            coords.append(Fraction(num, rng.choice(list(denoms))))
        else:
            coords.append(Fraction(num, comp.m ** rng.randint(0, 2)))
    if model.sum_mod is not None:
        rem = sum(coords) % model.sum_mod
        if rem:
            coords[0] += model.sum_mod - rem
    return tuple(coords)
