"""Definitions that only the tests use: the definitional spine oracle and
its residue box, the canonical class maps of one element, the model file
writer, the main-quantifier test and the walk that lists boolean units."""

import itertools
from fractions import Fraction
from typing import Iterable

from oagqe.models import (
    Element, IntComp, LexModel, RatComp, SpinePoint, ae_cut, h_cut, spine,
)
from oagqe.syntax import (
    AC, AE, AEP, And, Bottom, Exists, Forall, Formula, Not, Or, Sort, Top,
    sort_ac, sort_ae, subformulas,
)


def ac_class_of(model: LexModel, a: Element, n: int) -> SpinePoint:
    """The Ac(n)-point of a: the largest cut c with a outside H_c + nG
    ({0} when a is in nG)."""

    cut = h_cut(model, a, n)
    pts = {p.cut: p for p in spine(model, sort_ac(n))}
    if cut not in pts:
        raise AssertionError("canonical class lands outside the spine")
    return pts[cut]


def ae_class_of(model: LexModel, a: Element, n: int) -> SpinePoint:
    """The Ae(n)-point of a: the union of the Ac(n)-groups avoiding a."""

    pts = {p.cut: p for p in spine(model, sort_ae(n))}
    return pts[ae_cut(model, a, n)]


def definitional_spine_oracle(model: LexModel, sort: Sort,
                              samples: Iterable[Element]) -> list[int]:
    """Realized groups (as cuts) computed literally from the definitions on
    the given samples; cross-check for spine()."""

    n = sort.n
    realized: set[int] = set()
    if sort.kind == AC:
        for a in samples:
            realized.add(h_cut(model, a, n))
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
            ranges.append(range(bound))
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


def format_model(model: LexModel) -> str:
    lines = [repr(c) for c in model.comps]
    if model.sum_mod is not None:
        lines.append("sum %d" % model.sum_mod)
    return "\n".join(lines) + "\n"


def has_main_quantifier(f: Formula) -> bool:
    return any(
        isinstance(g, (Exists, Forall)) and g.sort.is_main for g in subformulas(f)
    )


def boolean_units(f: Formula) -> list[Formula]:
    """Maximal non-boolean subformulas (atoms and quantified blocks), in
    first-occurrence order: the units that `ShannonSplitter` lists when it
    is given none, by a walk of its own."""

    out: list[Formula] = []
    visited: set = set()
    # depth first, children pushed in reverse so that they pop in order
    stack = [f]
    while stack:
        g = stack.pop()
        if g in visited:
            continue
        visited.add(g)
        if isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.args))
        elif not isinstance(g, (Top, Bottom)):
            out.append(g)
    return out
