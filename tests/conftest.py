"""Shared fixture models and random generators for the suite."""

import random

import pytest

from oagqe.models import (
    IntComp, LexModel, LocComp, RatComp, sample_element, spine,
)
from oagqe.syntax import (
    AuxVar, CongDot, DPred, EqDot, LinTerm, MainRel, PlainRel, SortMin,
    conj, disj, neg, sort_ac, sort_ae,
)

# the seven models used by every differential check: rank one and two,
# discrete and dense quotients, localizations, and a dense middle layer
FIXTURE_MODELS = [
    LexModel((IntComp(),)),
    LexModel((RatComp(),)),
    LexModel((IntComp(), IntComp())),
    LexModel((IntComp(), RatComp())),
    LexModel((IntComp(), LocComp(2))),
    LexModel((IntComp(), LocComp(5))),
    LexModel((IntComp(), RatComp(), IntComp())),
]

MIXED_RANK5 = LexModel(
    (IntComp(), RatComp(), IntComp(), RatComp(), IntComp()))

SUM_MODEL = LexModel((IntComp(), IntComp(), IntComp()), sum_mod=2)

Z_MODEL = LexModel((IntComp(),))

# every shape of model the exact arithmetic meets: Z, Q and Z[1/m]
# components, ranks one to five, and a sum constraint
TYPED_MODELS = FIXTURE_MODELS + [MIXED_RANK5, SUM_MODEL]


@pytest.fixture
def rng():
    return random.Random(0)


# ---------------------------------------------------------------------------
# Random formula material shared by the differential tests

AUX_FREE = [AuxVar("a1", sort_ac(2)), AuxVar("e1", sort_ae(2))]


def rand_term(rng, vs, lo=-3, hi=3):
    return LinTerm.make({v: rng.randint(lo, hi)
                         for v in rng.sample(vs, rng.randint(1, min(2, len(vs))))})


def rand_mixed_atom(rng):
    """An atom over x, y, z mixing plain, dotted and anchored relations."""

    t = rand_term(rng, ["x", "y", "z"])
    c = rng.randint(0, 5)
    if c == 0:
        return PlainRel("lt", t, rand_term(rng, ["y", "z"]))
    if c == 1:
        return PlainRel("cong", t, rand_term(rng, ["y", "z"]),
                        m=rng.choice([2, 3, 4]))
    if c == 2:
        return EqDot(rng.choice([-2, -1, 1, 2]), t)
    if c == 3:
        return CongDot(rng.choice([2, 3]), 1, t)
    anchor = rng.choice(AUX_FREE + [SortMin(sort_ac(2))])
    if c == 4:
        return MainRel("lt", t, rand_term(rng, ["y", "z"]),
                       rng.randint(-1, 1), anchor)
    return MainRel("cong", t, rand_term(rng, ["y", "z"]), rng.randint(0, 1),
                   anchor, m=rng.choice([2, 3]))


def rand_syn_atom(rng):
    """An atom of the restricted language: plain and dotted relations only."""

    t = rand_term(rng, ["x", "y", "z"])
    c = rng.randint(0, 4)
    if c == 0:
        return PlainRel("lt", t, rand_term(rng, ["y", "z"]))
    if c == 1:
        return PlainRel("cong", t, rand_term(rng, ["y", "z"]),
                        m=rng.choice([2, 3, 4]))
    if c == 2:
        return EqDot(rng.choice([-2, -1, 1, 2]), t)
    if c == 3:
        return CongDot(rng.choice([2, 3, 4]), 1, t)
    return DPred(2, 1, rng.choice([1, 2]), t)


def rand_bool(rng, depth, leaf):
    if depth == 0:
        return leaf(rng)
    c = rng.randint(0, 2)
    if c == 0:
        return neg(rand_bool(rng, depth - 1, leaf))
    parts = [rand_bool(rng, depth - 1, leaf) for _ in range(2)]
    return conj(parts) if c == 1 else disj(parts)


def main_assignment(model, rng, names):
    return {v: sample_element(model, rng, 6, (1, 2, 3)) for v in names}


def aux_assignment(model, rng, auxvars=AUX_FREE):
    out = {}
    for v in auxvars:
        pts = spine(model, v.sort)
        if not pts:
            return None
        out[v.name] = rng.choice(pts)
    return out
