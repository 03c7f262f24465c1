"""End-to-end acceptance suite.

One test per acceptance requirement, in order: spine counts on reference
models, strict bracket membership in the sum-constrained model, class-map
identities, exhaustive coset-exclusion counting, power-sum truncation,
the integer congruence differential, random end-to-end elimination, the
piecewise fixtures, and negation closure of family unions: `qe_driver`
gives a formula and its negation family unions that disagree everywhere.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from conftest import (
    FIXTURE_MODELS, MIXED_RANK5, SUM_MODEL, Z_MODEL, aux_assignment,
    main_assignment, rand_bool, rand_mixed_atom, rand_syn_atom,
)
from helpers import (
    ac_class_of, ae_class_of, definitional_spine_oracle, has_main_quantifier,
    residue_box,
)
from oagqe.eliminate import eliminate_exists_main, power_sum_bound, qe_driver
from oagqe.evaluate import evaluate, evaluator, family_evaluator
from oagqe.models import (
    IntComp, LexModel, LocComp, aep_of, sample_element, spine,
)
from oagqe.normal import ResourceLimit
from oagqe.piecewise import (
    LinearPiece, PieceSet, decompose, verify_decomposition,
)
from oagqe.syntax import (
    CongDot, DPred, EqDot, Exists, Forall, LinTerm, MainRel, Not, PlainRel,
    SORT_G, Sc, SortMin, conj, disj, neg, sort_ac,
)
from oagqe.translate import _syn_atom_rewrite

BOT = SortMin(sort_ac(2))
zero = LinTerm.zero()


def test_spine_counts_on_reference_models():
    t0 = time.monotonic()
    zz = LexModel((IntComp(), IntComp()))
    for n in range(2, 13):
        assert len(spine(zz, sort_ac(n))) == 2, n

    zloc5 = LexModel((IntComp(), LocComp(5)))
    assert len(spine(zloc5, sort_ac(5))) == 1
    assert len(spine(zloc5, sort_ac(25))) == 1
    assert len(spine(zloc5, sort_ac(2))) == 2

    for p in (2, 3, 5):
        pts = spine(MIXED_RANK5, sort_ac(p))
        assert [pt.cut for pt in pts] == [0, 2, 4], p
        samples = list(residue_box(MIXED_RANK5, p + 1))
        want = definitional_spine_oracle(MIXED_RANK5, sort_ac(p), samples)
        assert [pt.cut for pt in pts] == want, p
    assert time.monotonic() - t0 < 1.0


def test_bracket_membership_strict_in_sum_constrained_model():
    t0 = time.monotonic()
    # twice the first-layer generator is divisible by 2 coordinatewise but
    # its quotient vector has odd sum, so it misses 2G while sitting inside
    # the bracket group of its own class
    a = SUM_MODEL.element([2, 0, 0])
    assert not SUM_MODEL.member(a, 0, 2)
    assert ac_class_of(SUM_MODEL, a, 2).cut == 0
    assert SUM_MODEL.member_bracket(a, 0, 2, 2)
    x = LinTerm.var("x")
    brack = MainRel("congb", x, zero, 0, Sc(2, 1, x), m=2, mp=2)
    assert evaluate(SUM_MODEL, {"x": a}, brack) is True
    plain = MainRel("cong", x, zero, 0, BOT, m=2)
    assert evaluate(SUM_MODEL, {"x": a}, plain) is False
    assert time.monotonic() - t0 < 1.0


def _dotted_pairs(t):
    dotted = [EqDot(1, t), EqDot(-2, t), CongDot(6, 1, t), DPred(2, 1, 2, t)]
    return [(a, _syn_atom_rewrite(a)) for a in dotted]


def test_class_map_identities_across_models():
    t0 = time.monotonic()
    rng = random.Random(31)
    x = LinTerm.var("x")
    checked = violations = 0
    for model in FIXTURE_MODELS:
        for _ in range(200):
            a = sample_element(model, rng, 9, (1, 2, 3))
            checked += 1
            # composite classes are the maximum of their prime-power parts
            for n, parts in ((6, (2, 3)), (12, (4, 3))):
                if ac_class_of(model, a, n).cut != max(
                        ac_class_of(model, a, p).cut for p in parts):
                    violations += 1
                if ae_class_of(model, a, n).cut != max(
                        ae_class_of(model, a, p).cut for p in (2, 3)):
                    violations += 1
                if aep_of(model, ae_class_of(model, a, n)).cut != min(
                        aep_of(model, ae_class_of(model, a, p)).cut
                        for p in (2, 3)):
                    violations += 1
            # the class cut is the largest failing membership cut
            for n in (2, 3, 4, 6):
                c = ac_class_of(model, a, n).cut
                if c > 0 and model.member(a, c, n):
                    violations += 1
                if any(not model.member(a, cc, n)
                       for cc in range(c + 1, model.rank + 1)):
                    violations += 1
            # dotted predicates match their anchored definitions
            asg = {"x": a}
            for dotted, anchored in _dotted_pairs(x):
                r1 = evaluate(model, asg, dotted)
                r2 = evaluate(model, asg, anchored)
                if r1 is not None and r2 is not None and r1 != r2:
                    violations += 1
    assert checked >= 200 * len(FIXTURE_MODELS)
    assert violations == 0
    assert time.monotonic() - t0 < 30.0


def _nested_systems():
    """All pairwise-disjoint excluded-coset systems under one positive
    coset, over the 2-adic levels 1..3."""

    for e0 in (1, 2, 3):
        for a0 in range(2 ** e0):
            cands = [(e, a) for e in range(e0 + 1, 4)
                     for a in range(2 ** e) if a % (2 ** e0) == a0]

            def disjoint(c1, c2):
                (ei, ai), (ej, aj) = sorted([c1, c2])
                return aj % (2 ** ei) != ai

            for k in range(0, 3):
                for subset in combinations(cands, k):
                    if all(disjoint(c1, c2)
                           for c1, c2 in combinations(subset, 2)):
                        yield e0, a0, subset


def test_coset_exclusion_counting_exhaustive():
    t0 = time.monotonic()
    Z = Z_MODEL
    checks = violations = 0
    for e0, a0, subset, in _nested_systems():
        X = [v for v in range(8)
             if v % (2 ** e0) == a0
             and all(v % (2 ** e) != a for e, a in subset)]
        for g in (1, 2):
            direct = {x % 8 for x in range(8)
                      for v in X if (x - v) % (2 ** g) == 0}
            # the counting condition itself, decided by exact arithmetic
            for x in range(8):
                c1 = (x - a0) % (2 ** min(e0, g)) == 0
                tot = sum((Fraction(1, 2 ** (max(e, g) - max(e0, g)))
                           for e, a in subset
                           if (x - a) % (2 ** min(e, g)) == 0),
                          Fraction(0))
                checks += 1
                if (x in direct) != (c1 and tot < 1):
                    violations += 1
            # the same set as the eliminator describes it: exists v with
            # v = a0 (2^e0), v != a (2^e) for each excluded coset and
            # v = x (2^g), restricted to excluded groups inside the
            # relaxation group
            if g > e0 or any(g > e for e, _ in subset):
                continue
            v = LinTerm.var("v")
            lits = ([(MainRel("cong", v, zero, a0, BOT, m=2 ** e0), True)]
                    + [(MainRel("cong", v, zero, a, BOT, m=2 ** e), False)
                       for e, a in subset]
                    + [(MainRel("cong", v, LinTerm.var("x"), 0, BOT,
                                m=2 ** g), True)])
            ev = evaluator(Z, eliminate_exists_main("v", lits))
            for x in range(-8, 9):
                checks += 1
                got = ev({"x": Z.element([x])})
                if got is not ((x % 8) in direct):
                    violations += 1
    assert checks > 2000
    assert violations == 0
    assert time.monotonic() - t0 < 10.0


def test_power_sum_truncation_exhaustive():
    t0 = time.monotonic()
    checks = violations = 0
    for n in (2, 3, 5):
        for nu in range(1, 7):
            N = power_sum_bound(n, nu)
            for exps in combinations_with_replacement(range(N + 3), nu):
                full = sum(Fraction(1, n ** e) for e in exps)
                trunc = sum(Fraction(1, n ** e) for e in exps if e < N)
                checks += 1
                if (full < 1) != (trunc < 1):
                    violations += 1
    assert checks > 5000
    assert violations == 0
    assert time.monotonic() - t0 < 10.0


def _rand_presburger_literal(rng):
    moduli = [2, 2, 2, 3, 3, 4, 4, 5, 6, 6, 8, 9, 10, 12, 7, 11]
    coeffs = [1, 1, 1, 2, 2, 3, -1, -1, -2, -3, 4, 5, -4, -5]
    t1 = LinTerm.make({"x": rng.choice(coeffs),
                       rng.choice(["y", "z"]): rng.choice(coeffs + [0])})
    t2 = LinTerm.make({rng.choice(["y", "z"]): rng.choice(coeffs)})
    if rng.random() < 0.5:
        a = PlainRel("lt", t1, t2)
    else:
        a = PlainRel("cong", t1, t2, m=rng.choice(moduli))
    return a, rng.random() < 0.7


def _congruence_period(lits):
    L = 1
    for a, _ in lits:
        if a.op == "cong":
            cx = abs(a.lhs.coeff("x"))
            per = a.m // math.gcd(cx, a.m) if cx else 1
            L = L * per // math.gcd(L, per)
    return L


def _holds(a, pol, x, y, z):
    env = {"x": x, "y": y, "z": z}
    l = sum(c * env[v] for v, c in a.lhs.coeffs)
    r = sum(c * env[v] for v, c in a.rhs.coeffs)
    v = (l < r) if a.op == "lt" else ((l - r) % a.m == 0)
    return v == pol


def _periodic_search(lits, y, z):
    """Complete decision of one-variable satisfiability over the integers:
    every literal is eventually periodic with period dividing L, so it is
    enough to look near the inequality thresholds and one full period past
    the extremes on both sides."""

    L = _congruence_period(lits)
    thr = [0]
    for a, _ in lits:
        cx = a.lhs.coeff("x")
        if a.op == "lt" and cx:
            env = {"x": 0, "y": y, "z": z}
            l0 = sum(c * env[v] for v, c in a.lhs.coeffs)
            r0 = sum(c * env[v] for v, c in a.rhs.coeffs)
            thr.append((r0 - l0) // cx)
    cands = set()
    lo, hi = min(thr), max(thr)
    for b in thr:
        cands.update(range(b - L - 1, b + L + 2))
    cands.update(range(lo - 2 * L - 2, lo - L + 1))
    cands.update(range(hi + L, hi + 2 * L + 3))
    return any(all(_holds(a, pol, x, y, z) for a, pol in lits)
               for x in cands)


def test_integer_congruence_elimination_differential():
    t0 = time.monotonic()
    rng = random.Random(3)
    Z = Z_MODEL
    bad = unk = limited = done = 0
    while done < 500:
        lits = [_rand_presburger_literal(rng)
                for _ in range(rng.randint(1, 4))]
        if not any(a.lhs.coeff("x") for a, _ in lits):
            continue
        if _congruence_period(lits) > 360:
            continue
        # coefficient normalization multiplies each modulus by lcm/|cx|;
        # cap the scaled moduli so single instances cannot dominate
        lc = 1
        for a, _ in lits:
            cx = abs(a.lhs.coeff("x"))
            if cx:
                lc = lc * cx // math.gcd(lc, cx)
        if any(a.op == "cong" and abs(a.lhs.coeff("x"))
               and a.m * lc // abs(a.lhs.coeff("x")) > 120
               for a, _ in lits):
            continue
        f = Exists("x", SORT_G,
                   conj([a if p else Not(a) for a, p in lits]))
        try:
            fuf = qe_driver(f, cap=512, max_branches=1500)
        except ResourceLimit:
            limited += 1
            assert limited < 1500, "eliminator rejects too many instances"
            continue
        done += 1
        fam = family_evaluator(Z, fuf)
        for _ in range(2):
            y, z = rng.randint(-9, 9), rng.randint(-9, 9)
            want = _periodic_search(lits, y, z)
            vals = fam({"y": Z.element([y]), "z": Z.element([z])})
            if any(v is True for v in vals):
                got = True
            elif all(v is False for v in vals):
                got = False
            else:
                got = None
            if got is None:
                unk += 1
            elif got != want:
                bad += 1
    assert bad == 0
    assert unk <= 50
    assert time.monotonic() - t0 < 60.0


def test_random_formula_elimination_end_to_end():
    t0 = time.monotonic()
    rng = random.Random(11)
    bad = double = unk = total = limited = done = 0
    while done < 200:
        body = rand_bool(rng, rng.randint(1, 2), rand_mixed_atom)
        kind = Exists if rng.random() < 0.6 else Forall
        f = kind("x", SORT_G, body)
        try:
            fuf = qe_driver(f, cap=128, max_branches=2000)
        except ResourceLimit:
            limited += 1
            assert limited < 600, "eliminator rejects too many formulas"
            continue
        assert fuf.well_formed() == []
        assert not has_main_quantifier(fuf.to_formula())
        model = FIXTURE_MODELS[done % len(FIXTURE_MODELS)]
        done += 1
        fam = family_evaluator(model, fuf)
        in_ev = evaluator(model, f)
        got_n = 0
        for _ in range(300):
            if got_n >= 100:
                break
            asg = main_assignment(model, rng, ["y", "z"])
            aa = aux_assignment(model, rng)
            if aa is None:
                continue
            asg.update(aa)
            got_n += 1
            total += 1
            r1 = in_ev(asg)
            vals = fam(asg)
            sat = sum(1 for v in vals if v is True)
            if sat > 1:
                double += 1
            if sat:
                r2 = True
            elif any(v is None for v in vals):
                r2 = None
            else:
                r2 = False
            if r1 is None or r2 is None:
                unk += 1
            elif r1 != r2:
                bad += 1
        assert got_n >= 100
    assert bad == 0
    assert double == 0
    assert unk <= total // 5
    assert time.monotonic() - t0 < 300.0


def test_piecewise_decomposition_fixtures():
    t0 = time.monotonic()
    x, y = LinTerm.var("x"), LinTerm.var("y")
    x1, x2 = LinTerm.var("x1"), LinTerm.var("x2")
    two_y = LinTerm.var("y", 2)
    half = conj([Not(MainRel("lt", x, two_y, 0, BOT)),
                 MainRel("lt", x, two_y, 2, BOT)])
    ps = decompose(Z_MODEL, half, "y", ["x"])
    assert len(ps.pieces) == 2
    assert verify_decomposition(Z_MODEL, half, ps, 10).ok

    biggest = disj([
        conj([MainRel("eq", y, x1, 0, BOT),
              Not(MainRel("lt", x1, x2, 0, BOT))]),
        conj([MainRel("eq", y, x2, 0, BOT),
              MainRel("lt", x1, x2, 0, BOT)]),
    ])
    ps2 = decompose(Z_MODEL, biggest, "y", ["x1", "x2"])
    assert len(ps2.pieces) == 2
    rep = verify_decomposition(Z_MODEL, biggest, ps2, 10)
    assert rep.ok and rep.points == 441

    # negative control: a corrupted coefficient must be caught
    broken = PieceSet(ps.args, ps.value_var, tuple(
        LinearPiece(p.guard, (p.coeffs[0] + 1,), p.denom, p.offset)
        for p in ps.pieces))
    assert not verify_decomposition(Z_MODEL, half, broken, 10).ok
    assert time.monotonic() - t0 < 10.0


def test_negation_closure_of_family_unions():
    t0 = time.monotonic()
    rng = random.Random(17)
    bad = unk = done = 0
    while done < 50:
        f = rand_bool(rng, rng.randint(1, 2), rand_syn_atom)
        try:
            fuf = qe_driver(f)
            nf = qe_driver(neg(f))
        except ResourceLimit:
            continue
        assert fuf.well_formed() == []
        assert nf.well_formed() == []
        model = FIXTURE_MODELS[done % len(FIXTURE_MODELS)]
        done += 1
        fam1 = family_evaluator(model, fuf)
        fam2 = family_evaluator(model, nf)
        for _ in range(5):
            asg = main_assignment(model, rng, ["x", "y", "z"])
            r1 = _family_truth(fam1(asg))
            r2 = _family_truth(fam2(asg))
            if r1 is None or r2 is None:
                unk += 1
            elif r1 == r2:
                bad += 1
    assert bad == 0
    assert unk <= 50
    assert time.monotonic() - t0 < 30.0


def _family_truth(vals):
    if any(v is True for v in vals):
        return True
    if all(v is False for v in vals):
        return False
    return None
