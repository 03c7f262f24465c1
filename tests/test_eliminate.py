"""Main-variable elimination: scaling, order analysis, congruence systems,
all through `eliminate_exists_main` and `qe_driver`."""

import gc
import math

import pytest

from conftest import FIXTURE_MODELS, Z_MODEL, main_assignment, rand_term
from helpers import has_main_quantifier
from test_tracing import _api, _tracing
from oagqe.eliminate import eliminate_exists_main, power_sum_bound, qe_driver
from oagqe.evaluate import evaluate, family_evaluator
from oagqe.models import IntComp, LexModel, RatComp
from oagqe.normal import ResourceLimit
from oagqe.piecewise import decompose
from oagqe.syntax import (
    And, AuxLe, AuxVar, Discr, EqDot, Exists, LinTerm, MainRel, Not, Or,
    PlainRel, SORT_G, SortMin, conj, disj, free_vars, sort_ac, subformulas,
)

x = LinTerm.var("x")
y, z = LinTerm.var("y"), LinTerm.var("z")
zero = LinTerm.zero()
BOT = SortMin(sort_ac(2))
ZZ = LexModel((IntComp(), IntComp()))
Q_MODEL, ZQ = LexModel((RatComp(),)), LexModel((IntComp(), RatComp()))


def test_power_sum_bound_values():
    # with base 2 every extra term can contribute up to a full half, so
    # the bound grows linearly; larger bases saturate faster
    assert [power_sum_bound(2, nu) for nu in range(5)] == [0, 1, 2, 3, 4]
    assert power_sum_bound(3, 4) == 2
    assert power_sum_bound(5, 6) == 2
    assert power_sum_bound(7, 1) == 1
    with pytest.raises(ValueError):
        power_sum_bound(1, 3)
    with pytest.raises(ValueError):
        power_sum_bound(2, -1)


def test_power_sum_bound_minimality():
    # the smallest depth at which nu terms of n**-N cannot bridge the
    # coarsest remaining gap of (n-1) * n**-N per level
    for n in (2, 3, 5):
        for nu in range(9):
            N = power_sum_bound(n, nu)
            assert nu <= N * (n - 1)
            if N > 0:
                assert nu > (N - 1) * (n - 1)


def _exists_x(model, asg, lits):
    f = Exists("x", SORT_G, conj([a if pol else Not(a) for a, pol in lits]))
    return evaluate(model, asg, f)


def _check_elimination(rng, model, lits, samples):
    """eliminate_exists_main on lits agrees with evaluating exists x."""

    out = eliminate_exists_main("x", lits)
    for _ in range(samples):
        asg = main_assignment(model, rng, ["y", "z"])
        want = _exists_x(model, asg, lits)
        got = evaluate(model, asg, out)
        if want is not None and got is not None:
            assert want == got, (lits, model, asg)


def test_eliminate_exists_main_differential(rng):
    for trial in range(25):
        lits = []
        for _ in range(rng.randint(1, 3)):
            t = LinTerm.var("x", rng.choice([1, 1, 2, -1]))
            w = rand_term(rng, ["y", "z"])
            op = rng.choice(["lt", "eq", "cong"])
            kwargs = {"m": rng.choice([2, 3])} if op == "cong" else {}
            lits.append((MainRel(op, t, w, rng.randint(-1, 1), BOT,
                                 **kwargs), rng.random() < 0.8))
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        _check_elimination(rng, model, lits, 3)


def test_part1_differential(rng):
    # the Part 1 shape: a lower and an upper bound, each strict or not (a
    # negated lt), with or without a congruence, over discrete quotients
    # and dense ones; bounds on one term leave a gap of a few steps.  Each
    # model meets each choice of strictness and of the upper term twice.
    # From trial 64 on, the bounds sit on one term more than m0 + 1 steps
    # apart (m0 the lcm of the moduli), where an offset branch and the wide
    # branch both hold, and a second congruence may contradict the first.
    models = (Z_MODEL, ZZ, Q_MODEL, ZQ)
    for trial in range(128):
        wide = trial >= 64
        lo = rand_term(rng, ["y"])
        up = lo if trial & 16 or wide else rand_term(rng, ["z"])
        congs = []
        if wide or rng.random() < 0.7:
            congs.append(rng.randint(2, 6 if wide else 12))
        if wide and rng.random() < 0.5:
            congs.append(rng.randint(2, 6))
        m0 = math.lcm(1, *congs)
        k_lo, k_up = rng.randint(-2, 2), rng.randint(-2, 2)
        if wide:
            k_up = k_lo + m0 + rng.randint(2, 4)
        lits = [
            (MainRel("lt", lo, x, k_lo, BOT), True) if trial & 4
            else (MainRel("lt", x, lo, k_lo, BOT), False),
            (MainRel("lt", x, up, k_up, BOT), True) if trial & 8
            else (MainRel("lt", up, x, k_up, BOT), False),
        ]
        lits += [(MainRel("cong", x, y, rng.randint(-2, 2), BOT, m=m),
                  rng.random() < 0.8) for m in congs]
        _check_elimination(rng, models[trial % 4], lits, 4)


def _size(f):
    """Sum of the connective arities over the distinct subformulas."""

    return sum(len(g.args) if isinstance(g, (And, Or)) else 1
               for g in set(subformulas(f)) if isinstance(g, (And, Or, Not)))


def test_part1_size_is_linear_in_the_modulus():
    # one branch per witness offset below the gap: the output grows with
    # the modulus, not with its square
    def size(m):
        return _size(eliminate_exists_main("x", [
            (MainRel("lt", y, x, 0, BOT), True),
            (MainRel("lt", x, z, 0, BOT), True),
            (MainRel("cong", x, y, 1, BOT, m=m), True),
        ]))

    assert size(96) < 5 * size(24)


def test_part2_differential(rng):
    # the Part 2 shape: congruences of either sign and at most one equality
    for trial in range(15):
        lits = []
        for _ in range(rng.randint(1, 3)):
            lits.append((MainRel("cong", x, rand_term(rng, ["y", "z"]),
                                 rng.randint(0, 2), BOT,
                                 m=rng.choice([2, 3, 4, 6])),
                        rng.random() < 0.7))
        if trial % 3 == 0:
            lits.append((MainRel("eq", x, y, 0, BOT), True))
        _check_elimination(rng, (Z_MODEL, ZZ)[trial % 2], lits, 4)


def test_normalize_preserves_existence(rng):
    # coefficients other than one, which the step scales away, beside a
    # literal without x
    fixed = [
        (MainRel("lt", y, LinTerm.var("x", 2), 0, BOT), True),
        (MainRel("cong", LinTerm.var("x", 3), z, 1, BOT, m=2), True),
        (PlainRel("lt", zero, y), True),
    ]
    for model in (Z_MODEL, ZZ):
        _check_elimination(rng, model, fixed, 6)
    for trial in range(40):
        lits = []
        for _ in range(rng.randint(1, 3)):
            t = LinTerm.var("x", rng.choice([1, 2, 3, -2]))
            w = rand_term(rng, ["y", "z"])
            op = rng.choice(["lt", "eq", "cong"])
            kwargs = {"m": rng.choice([2, 3, 4])} if op == "cong" else {}
            lits.append((MainRel(op, t, w, rng.randint(-1, 1), BOT,
                                 **kwargs), rng.random() < 0.8))
        _check_elimination(rng, (Z_MODEL, ZZ)[trial % 2], lits, 3)


def test_qe_driver_drops_a_cancelled_variable():
    # x + y < x + z: the coefficients of x cancel, and so must x
    f = Exists("x", SORT_G, PlainRel("lt", x + y, x + z))
    fuf = qe_driver(f)
    assert set(free_vars(fuf.to_formula(), {})) <= set(free_vars(f, {}))
    fam = family_evaluator(Z_MODEL, fuf)
    for vy, vz in ((0, 1), (1, 0), (2, 2), (-3, 4)):
        vals = fam({"y": Z_MODEL.element([vy]), "z": Z_MODEL.element([vz])})
        assert (True in vals) is (vy < vz), (vy, vz, vals)
        assert all(v is not None for v in vals)


def test_qe_driver_presburger_smoke(rng):
    f = Exists("x", SORT_G,
               MainRel("eq", LinTerm.var("x", 2), y, 0, BOT))
    fuf = qe_driver(f)
    assert fuf.well_formed() == []
    g = fuf.to_formula()
    assert not has_main_quantifier(g)
    for v in (-4, -3, 0, 3, 6):
        asg = {"y": Z_MODEL.element([v])}
        assert evaluate(Z_MODEL, asg, g) is (v % 2 == 0)


def test_qe_driver_rejects_negative_budgets():
    f = Exists("x", SORT_G, PlainRel("lt", LinTerm.var("y"), LinTerm.var("x")))
    for kwargs in ({"cap": -1}, {"max_branches": -5}):
        with pytest.raises(ValueError, match="negative"):
            qe_driver(f, **kwargs)
    # zero is a budget, which this input exceeds
    with pytest.raises(ResourceLimit, match="branch budget"):
        qe_driver(f, max_branches=0)


# x above y by one step of a discrete quotient, under an auxiliary block
A = AuxVar("a", sort_ac(2))
STEP_IN_BLOCK = Exists("x", SORT_G, conj([
    PlainRel("lt", y, x),
    Exists("a", sort_ac(2), conj([Discr(A), EqDot(1, x - y)]))]))


def test_gap_image_of_zero_extracts_no_parameter(rng):
    # both bounds of x sit on y, so the canonical image of their gap is the
    # image of zero: the sort's minimum, with no theta parameter to pin
    fuf = qe_driver(STEP_IN_BLOCK)
    assert fuf.well_formed() == [] and len(fuf.clauses) == 1
    assert fuf.clauses[0].theta == () and fuf.clauses[0].psi == ()
    for model in FIXTURE_MODELS:
        fam = family_evaluator(model, fuf)
        for _ in range(3):
            asg = main_assignment(model, rng, ["y"])
            assert fam(asg) == [evaluate(model, asg, STEP_IN_BLOCK)], model


def test_traced_qe_path_counts_every_layer():
    # perfbench/tracing.py installed as test_tracing installs it, over one
    # elimination whose body holds a main atom under an auxiliary block:
    # each layer of the final case split counts a call, so its traced
    # numbers cannot silently read 0
    tracing, api = _tracing(), _api()
    tracer = tracing.Tracer()
    f = STEP_IN_BLOCK
    try:
        tracing.install(tracer, api)
        fuf = api.qe_driver(f)
    finally:
        tracer.unpatch()
    assert fuf.well_formed() == []
    for name in ("normal.hoist_main_units", "normal.dnf_disjoint_tree",
                 "normal.extract_can_terms", "translate.syn_qf_to_qe_fuf"):
        assert tracer.counts[name + ".calls"] >= 1, name


def test_calls_leave_no_cyclic_garbage():
    # every walker's memo and every splitter table is freed by reference
    # counting when its call returns, so the cyclic collector finds nothing
    # after an elimination whose final case split goes through an
    # auxiliary block, one stopped by the clause cap, a one-shot evaluation
    # and a decomposition
    a1 = AuxVar("a1", sort_ac(2))
    through_block = Exists("a", sort_ac(2), conj([Discr(A), disj([
        PlainRel("lt", y, z), AuxLe(A, a1)])]))
    wide = Exists("x", SORT_G, conj(
        [PlainRel("lt", LinTerm.var("y%d" % i), x) for i in range(4)]
        + [PlainRel("lt", x, LinTerm.var("z%d" % i)) for i in range(3)]))
    one_shot = Exists("x", SORT_G, conj([
        PlainRel("lt", y, x), PlainRel("lt", x, z), Not(EqDot(1, x - y))]))
    graph = MainRel("eq", y, x, 0, BOT)
    gc.collect()
    gc.disable()
    try:
        fuf = qe_driver(through_block)
        try:
            qe_driver(wide, cap=2)
            capped = False
        except ResourceLimit:
            capped = True
        answer = evaluate(Z_MODEL, {"y": Z_MODEL.element([0]),
                                    "z": Z_MODEL.element([5])}, one_shot)
        pieces = decompose(Z_MODEL, graph, "y", ["x"]).pieces
        assert gc.collect() == 0
    finally:
        gc.enable()
    # the main atom was split out of the block, and the other calls ran
    # as described
    lit = MainRel("lt", y, z, 0, BOT)
    assert [cl.psi for cl in fuf.clauses] == [((lit, True),), ((lit, False),)]
    assert capped and answer is True and len(pieces) == 1
