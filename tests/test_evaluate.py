"""Exact atom semantics and the bounded three-valued evaluator."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    AUX_FREE, FIXTURE_MODELS, SUM_MODEL, TYPED_MODELS, Z_MODEL,
    aux_assignment, main_assignment, rand_bool, rand_mixed_atom, rand_term,
)
from oagqe import solver
from oagqe.eliminate import qe_driver
from oagqe.evaluate import (
    DEFAULT_BOX, Uncompilable, _discrete_cuts, _fallback_candidates,
    compile_clause, eval_atom, eval_lin, evaluate, evaluator,
    family_evaluator, ground_for_var, k_all, k_any, k_not, resolve_aux,
)
from oagqe.models import (
    IntComp, LexModel, RatComp, ac_class_of, dim_query, h_cut, spine,
    spine_min,
)
from oagqe.normal import ResourceLimit
from oagqe.syntax import (
    And, Atom, AuxAsymp, AuxLe, AuxVar, Bottom, CongDot, DimFloor, DimSucc,
    Discr, DPred, EqDot, Exists, Forall, Fresh, LinTerm, MainRel, Not, Or,
    PlainRel, Sc, Se, SortMin, SORT_G, SpineRef, Top, conj, disj, free_vars,
    neg, sort_ac, sort_ae, sort_aep, substitute,
)

# the module; the package exports its function `evaluate` under that name
EV = importlib.import_module("oagqe.evaluate")
ZZ = LexModel((IntComp(), IntComp()))
BOT = SortMin(sort_ac(2))
TOPCUT = SpineRef(sort_ac(2), "g1")

x, y = LinTerm.var("x"), LinTerm.var("y")
zero = LinTerm.zero()


def test_three_valued_connectives():
    assert k_not(True) is False and k_not(None) is None
    assert k_all([True, True]) is True
    assert k_all([True, None]) is None
    assert k_all([None, False]) is False
    assert k_any([False, None]) is None
    assert k_any([None, True]) is True
    assert k_any([]) is False and k_all([]) is True


def test_resolve_aux():
    a = ZZ.element([3, 0])
    assert resolve_aux(ZZ, {"x": a}, Sc(2, 1, x)) == ac_class_of(ZZ, a, 2)
    assert resolve_aux(ZZ, {}, BOT) == spine_min(ZZ, sort_ac(2))
    assert resolve_aux(ZZ, {}, TOPCUT).cut == 1
    pt = spine(ZZ, sort_ae(2))[1]
    assert resolve_aux(ZZ, {"b": pt}, AuxVar("b", sort_ae(2))) == pt


def test_quotient_lt_with_offset():
    # at the bottom cut the quotient is G itself; k counts minimal steps
    asg = {"x": ZZ.element([0, 0]), "y": ZZ.element([0, 0])}
    assert eval_atom(ZZ, asg, MainRel("lt", x, y, 1, BOT))
    assert not eval_atom(ZZ, asg, MainRel("lt", x, y, 0, BOT))
    # at the top cut only the most significant coordinate survives
    asg = {"x": ZZ.element([5, 0]), "y": ZZ.element([-7, 1])}
    assert eval_atom(ZZ, asg, MainRel("lt", x, y, 0, TOPCUT))
    assert not eval_atom(ZZ, asg, MainRel("lt", x, y, -1, TOPCUT))


def test_quotient_eq_and_cong():
    asg = {"x": ZZ.element([5, 0]), "y": ZZ.element([9, 0])}
    assert eval_atom(ZZ, asg, MainRel("eq", x, y, 0, TOPCUT))
    assert not eval_atom(ZZ, asg, MainRel("eq", x, y, 0, BOT))
    asg = {"x": ZZ.element([1, 1]), "y": ZZ.element([0, 0])}
    assert eval_atom(ZZ, asg, MainRel("cong", x, y, 1, TOPCUT, m=2))
    assert not eval_atom(ZZ, asg, MainRel("cong", x, y, 0, TOPCUT, m=2))


def test_offset_vanishes_in_dense_quotient():
    m = LexModel((RatComp(),))
    asg = {"x": m.element([0]), "y": m.element([0])}
    # k would require a minimal positive step, but the quotient is dense
    assert not eval_atom(m, asg, MainRel("lt", x, y, 3, SortMin(sort_ac(2))))
    assert eval_atom(m, asg, MainRel("eq", x, y, 3, SortMin(sort_ac(2))))


def test_dotted_atoms():
    asg = {"x": ZZ.element([2, 0])}
    assert eval_atom(ZZ, asg, EqDot(2, x))
    assert not eval_atom(ZZ, asg, EqDot(-2, x))
    assert eval_atom(ZZ, asg, CongDot(3, 2, x))
    # (0,1) is the minimal positive element modulo the bottom copy of Z
    assert eval_atom(ZZ, {"x": ZZ.element([0, 1])}, EqDot(1, x))
    assert not eval_atom(ZZ, {"x": ZZ.element([3, 0])}, EqDot(1, x))


def test_discr_and_aux_order():
    m = LexModel((IntComp(), RatComp(), IntComp()))
    assert eval_atom(m, {}, Discr(SortMin(sort_ac(2))))
    assert not eval_atom(m, {}, Discr(SpineRef(sort_ac(2), "g1")))
    pts = spine(m, sort_ac(2))
    assert eval_atom(m, {"a": pts[0], "b": pts[1]},
                     AuxLe(AuxVar("a", sort_ac(2)), AuxVar("b", sort_ac(2))))


def test_bracket_congruence_sum_model():
    a = SUM_MODEL.element([2, 0, 0])
    atom = MainRel("congb", x, zero, 0, Sc(2, 1, x), m=2, mp=2)
    assert evaluate(SUM_MODEL, {"x": a}, atom) is True
    plain = MainRel("cong", x, zero, 0, SortMin(sort_ac(2)), m=2)
    assert evaluate(SUM_MODEL, {"x": a}, plain) is False


def test_main_quantifier_decisions():
    assert evaluate(Z_MODEL, {}, Exists("x", SORT_G,
                                        PlainRel("lt", zero, x))) is True
    # 2x = y is solvable exactly for even y
    twox = LinTerm.var("x", 2)
    f = Exists("x", SORT_G, MainRel("eq", twox, y, 0, BOT))
    assert evaluate(Z_MODEL, {"y": Z_MODEL.element([4])}, f) is True
    assert evaluate(Z_MODEL, {"y": Z_MODEL.element([3])}, f) is False
    g = Forall("x", SORT_G, PlainRel("cong", x, zero, m=2))
    assert evaluate(Z_MODEL, {}, g) is False
    dense = LexModel((RatComp(),))
    assert evaluate(dense, {}, g) is True  # 2 divides everything in Q


def test_aux_quantifier_sweeps_spine():
    f = Exists("b", sort_ac(2), Not(Discr(AuxVar("b", sort_ac(2)))))
    # over Q + Z the bottom quotient is dense; over Z + Z none is
    m = LexModel((RatComp(), IntComp()))
    assert evaluate(m, {}, f) is True
    assert evaluate(ZZ, {}, f) is False


# ---------------------------------------------------------------------------
# Reference: the interpretive evaluator that the compiled closure tree
# replaced.  It walks the formula at every call and memoizes every node per
# (node identity, restriction of the assignment to the node's free names).
# Its free-name cache and alpha renaming are the identity-keyed versions
# that the value-keyed ones in src replaced, so it shares no code with the
# renaming and compiling it checks.

def _free_names(f, cache):
    hit = cache.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Atom):
        names = frozenset(free_vars(f).keys())
    elif isinstance(f, (Top, Bottom)):
        names = frozenset()
    elif isinstance(f, Not):
        names = _free_names(f.arg, cache)
    elif isinstance(f, (And, Or)):
        names = frozenset().union(*(_free_names(g, cache) for g in f.args))
    elif isinstance(f, (Exists, Forall)):
        names = _free_names(f.body, cache) - {f.var}
    else:
        raise TypeError("not a formula: %r" % (f,))
    cache[id(f)] = (f, names)
    return names


def _renamer(fresh, freec, memo):

    def walk(g, ren):
        live = tuple(sorted((v, ren[v][0]) for v in ren
                            if v in _free_names(g, freec)))
        key = (id(g), live)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(g, Atom):
            if not live:
                out = g
            else:
                mapping = {}
                for old, (new, sort) in ren.items():
                    if sort.is_main:
                        mapping[old] = LinTerm.var(new)
                    else:
                        mapping[old] = AuxVar(new, sort)
                out = substitute(g, mapping)
        elif isinstance(g, (Top, Bottom)):
            out = g
        elif isinstance(g, Not):
            out = Not(walk(g.arg, ren))
        elif isinstance(g, And):
            out = And(tuple(walk(h, ren) for h in g.args))
        elif isinstance(g, Or):
            out = Or(tuple(walk(h, ren) for h in g.args))
        elif isinstance(g, (Exists, Forall)):
            new = fresh(g.var)
            inner = dict(ren)
            inner[g.var] = (new, g.sort)
            out = type(g)(new, g.sort, walk(g.body, inner))
        else:
            raise TypeError("not a formula: %r" % (g,))
        memo[key] = out
        return out

    return walk


def ref_atom(model, asg, a):
    if isinstance(a, MainRel):
        c = resolve_aux(model, asg, a.aux).cut
        d = model.sub(eval_lin(model, asg, a.lhs), eval_lin(model, asg, a.rhs))
        if a.k != 0:
            rep = model.minpos_rep(c)
            if rep is not None:
                d = model.sub(d, model.smul(a.k, rep))
        if a.op == "eq":
            return model.in_cut(d, c)
        if a.op == "lt":
            return model.proj_sign(d, c) < 0
        if a.op == "cong":
            return model.member(d, c, a.m)
        return model.member_bracket(d, c, a.m, a.mp)
    if isinstance(a, PlainRel):
        d = model.sub(eval_lin(model, asg, a.lhs), eval_lin(model, asg, a.rhs))
        if a.op == "lt":
            return model.sign(d) < 0
        return model.member(d, 0, a.m)
    if isinstance(a, AuxLe):
        return (resolve_aux(model, asg, a.lhs).cut
                <= resolve_aux(model, asg, a.rhs).cut)
    if isinstance(a, AuxAsymp):
        return (resolve_aux(model, asg, a.lhs).cut
                == resolve_aux(model, asg, a.rhs).cut)
    if isinstance(a, Discr):
        return model.quotient_discrete(resolve_aux(model, asg, a.aux).cut)
    if isinstance(a, DimSucc):
        alpha = resolve_aux(model, asg, a.aux)
        return dim_query(model, a.p, (alpha, a.s + 1), (alpha, a.s)) == a.ell
    if isinstance(a, DimFloor):
        alpha = resolve_aux(model, asg, a.aux)
        return dim_query(model, a.p, (alpha, None), (alpha, a.s)) == a.ell
    if isinstance(a, (EqDot, CongDot)):
        t = eval_lin(model, asg, a.t)
        for c in _discrete_cuts(model):
            d = model.sub(t, model.smul(a.k, model.minpos_rep(c)))
            if (model.in_cut(d, c) if isinstance(a, EqDot)
                    else model.member(d, c, a.m)):
                return True
        return False
    if isinstance(a, DPred):
        t = eval_lin(model, asg, a.t)
        c = h_cut(model, t, a.p ** a.r)
        return (model.member_bracket(t, c, a.p ** a.r, a.p ** a.s)
                and not model.member(t, c, a.p ** a.r))
    raise TypeError("not an atom: %r" % (a,))


# The clause source of the evaluator as it was before it took its clauses
# from the Shannon splitter: a negation normal form, then a disjunctive
# normal form that is not disjoint, built in full, with a cap of 512 clauses
# that sends the decision to the bounded fallback.  Kept as the reference
# that the lazy disjoint leaves must agree with.

def _ref_nnf(f):
    if isinstance(f, (Atom, Top, Bottom)):
        return f
    if isinstance(f, And):
        return conj(_ref_nnf(g) for g in f.args)
    if isinstance(f, Or):
        return disj(_ref_nnf(g) for g in f.args)
    g = f.arg
    if isinstance(g, Atom):
        return f
    if isinstance(g, (Top, Bottom)):
        return neg(g)
    if isinstance(g, Not):
        return _ref_nnf(g.arg)
    if isinstance(g, And):
        return disj(_ref_nnf(Not(h)) for h in g.args)
    return conj(_ref_nnf(Not(h)) for h in g.args)


def _ref_dnf_clauses(f, cap=512):
    def go(g):
        if isinstance(g, Top):
            return [{}]
        if isinstance(g, Bottom):
            return []
        if isinstance(g, Atom):
            return [{g: True}]
        if isinstance(g, Not):
            return [{g.arg: False}]
        if isinstance(g, Or):
            out = []
            for h in g.args:
                out.extend(go(h))
                if len(out) > cap:
                    raise Uncompilable("clause cap exceeded")
            return out
        acc = [{}]
        for h in g.args:
            nxt = []
            for left in acc:
                for right in go(h):
                    merged = dict(left)
                    if all(merged.setdefault(a, pol) == pol
                           for a, pol in right.items()):
                        nxt.append(merged)
            if len(nxt) > cap:
                raise Uncompilable("clause cap exceeded")
            acc = nxt
        return acc

    return go(_ref_nnf(f))


def ref_decide(model, asg, var, body, box, memo):
    try:
        g = ground_for_var(model, asg, var, body)
        for lits in _ref_dnf_clauses(g):
            for cl in compile_clause(model, asg, var, lits.items()):
                if solver.solve_clause(model, cl) is not None:
                    return True
        return False
    except (Uncompilable, solver.SolverLimit):
        pass
    for cand in _fallback_candidates(model, asg, box):
        asg2 = dict(asg)
        asg2[var] = cand
        if ref_eval(model, asg2, body, box, memo) is True:
            return True
    return None


_MISS = object()


def ref_eval(model, asg, f, box, memo):
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    names = _free_names(f, memo["free"])
    key = (id(f), tuple(sorted((v, asg[v]) for v in names if v in asg)))
    hit = memo["vals"].get(key, _MISS)
    if hit is not _MISS:
        return hit
    if isinstance(f, Atom):
        out = ref_atom(model, asg, f)
    elif isinstance(f, Not):
        out = k_not(ref_eval(model, asg, f.arg, box, memo))
    elif isinstance(f, And):
        out = k_all(ref_eval(model, asg, g, box, memo) for g in f.args)
    elif isinstance(f, Or):
        out = k_any(ref_eval(model, asg, g, box, memo) for g in f.args)
    elif isinstance(f, Exists) and f.sort.is_main:
        out = ref_decide(model, asg, f.var, f.body, box, memo)
    elif isinstance(f, Forall) and f.sort.is_main:
        out = k_not(ref_decide(model, asg, f.var, Not(f.body), box, memo))
    else:
        vals = []
        for pt in spine(model, f.sort):
            asg2 = dict(asg)
            asg2[f.var] = pt
            vals.append(ref_eval(model, asg2, f.body, box, memo))
        out = k_any(vals) if isinstance(f, Exists) else k_all(vals)
    memo["vals"][key] = out
    return out


def ref_evaluator(model, f, box=DEFAULT_BOX):
    fresh = Fresh("b")
    freec = {}
    fresh.reserve(_free_names(f, freec))
    g = _renamer(fresh, freec, {})(f, {})
    memo = {"free": {}, "vals": {}}
    return lambda asg: ref_eval(model, asg, g, box, memo)


def ref_family(model, fuf, box=DEFAULT_BOX):
    matrices = [cl.matrix() for cl in fuf.clauses]
    fresh = Fresh("b")
    freec = {}
    for m in matrices:
        fresh.reserve(_free_names(m, freec))
    walk = _renamer(fresh, freec, {})
    renamed = [walk(m, {}) for m in matrices]
    memo = {"free": {}, "vals": {}}

    def run(asg):
        out = []
        for cl, mat in zip(fuf.clauses, renamed):
            val = False
            for combo in itertools.product(
                    *(spine(model, s) for _, s in cl.theta)):
                asg2 = dict(asg)
                asg2.update(zip((n for n, _ in cl.theta), combo))
                v = ref_eval(model, asg2, mat, box, memo)
                if v is True:
                    val = True
                    break
                if v is None:
                    val = None
            out.append(val)
        return out

    return run


# ---------------------------------------------------------------------------
# The compiled evaluator against the reference

A1 = AUX_FREE[0]
B = AuxVar("b", sort_ac(2))


def rand_quantified(rng, model):
    """A random formula over x, y, z, a1, e1 with constant anchors at every
    spine point, auxiliary quantifiers (one of them rebinding the free a1),
    main quantifiers, and, on models of rank at most 2, a main quantifier
    nested in another (the bounded fallback)."""

    refs = [SpineRef(pt.sort, pt.class_id) for pt in spine(model, sort_ac(2))]

    def leaf(rng):
        if rng.random() < 0.6:
            return rand_mixed_atom(rng)
        t, u = rand_term(rng, ["x", "y", "z"]), rand_term(rng, ["y", "z"])
        op, ref = rng.choice(["lt", "eq", "cong", "congb"]), rng.choice(refs)
        if op == "congb":
            return MainRel(op, t, u, 0, ref, m=rng.choice([2, 3]), mp=4)
        m = rng.choice([2, 3]) if op == "cong" else 0
        return MainRel(op, t, u, rng.randint(-1, 1), ref, m=m)

    def qf():
        return rand_bool(rng, rng.randint(0, 2), leaf)

    c = rng.randint(0, 5 if model.rank <= 2 else 4)
    if c == 0:
        return qf()
    if c == 1:
        return conj([qf(), Exists("a1", sort_ac(2), disj([qf(), Discr(A1)]))])
    if c == 2:
        return Forall("b", sort_ac(2), disj([Not(AuxLe(B, A1)), qf()]))
    if c == 3:
        return disj([qf(), Exists("x", SORT_G, qf())])
    if c == 4:
        return neg(Forall("z", SORT_G, qf()))
    return Forall("z", SORT_G, Exists("x", SORT_G, qf()))


def assignments(model, rng, n):
    """Assignments that often repeat some coordinates, so that memo entries
    of nodes over fewer names are hit."""

    base = main_assignment(model, rng, ["x", "y", "z"])
    aa = aux_assignment(model, rng)
    out = []
    for _ in range(n):
        asg = dict(base)
        for v in rng.sample(["x", "y", "z"], rng.randint(1, 2)):
            asg[v] = main_assignment(model, rng, [v])[v]
        asg.update(aux_assignment(model, rng) if rng.random() < 0.5 else aa)
        out.append(asg)
    return out


def test_evaluator_matches_reference(rng):
    unknown = 0
    for trial in range(120):
        model = TYPED_MODELS[trial % len(TYPED_MODELS)]
        f = rand_quantified(rng, model)
        box = 2 if model.rank <= 2 else DEFAULT_BOX
        run, ref = evaluator(model, f, box), ref_evaluator(model, f, box)
        for asg in assignments(model, rng, 8):
            want = ref(asg)
            assert run(asg) == want, (f, asg)
            assert evaluate(model, asg, f, box) == want
            unknown += want is None
    assert unknown > 0   # the fallback's undecided answers were compared


def _pairs_over_x(n):
    """(0 < i x or i x < 0) for i = 2..n+1: n distinct pairs of atoms, none
    of them 0 < x or x < 0, whose disjoint decision tree has 2^n leaves."""

    return [disj([PlainRel("lt", zero, LinTerm.make({"x": i})),
                  PlainRel("lt", LinTerm.make({"x": i}), zero)])
            for i in range(2, n + 2)]


def _count_solves(monkeypatch):
    calls = []
    solve = solver.solve_clause

    def counted(model, cl):
        calls.append(cl)
        return solve(model, cl)

    monkeypatch.setattr(solver, "solve_clause", counted)
    return calls


def test_first_satisfiable_leaf_ends_the_search(monkeypatch):
    # 1024 leaves, more than the cap, but the first one has a witness
    calls = _count_solves(monkeypatch)
    f = Exists("x", SORT_G, conj(_pairs_over_x(10)))
    assert evaluate(ZZ, {}, f) is True
    assert len(calls) == 1


def test_leaf_cap_goes_to_the_fallback(monkeypatch):
    # every leaf needs x < 0 and 0 < x, so no leaf has a witness; after 512
    # leaves the cap sends the decision to the bounded search
    calls = _count_solves(monkeypatch)
    never = [PlainRel("lt", x, zero), PlainRel("lt", zero, x)]
    f = Exists("x", SORT_G, conj(never + _pairs_over_x(10)))
    assert evaluate(ZZ, {}, f) is None
    assert len(calls) == 512
    # the witness x = y lies beyond the cap; the fallback tries y first
    same = [neg(PlainRel("lt", x, y)), neg(PlainRel("lt", y, x))]
    g = Exists("x", SORT_G, disj([conj(never + _pairs_over_x(10)),
                                  conj(same)]))
    assert evaluate(ZZ, {"y": ZZ.element([3, 0])}, g) is True


def test_family_evaluator_matches_reference(rng):
    forms = 0
    for trial in range(60):
        if forms == 12:
            break
        body = rand_bool(rng, 1, rand_mixed_atom)
        f = (Exists if trial % 2 else Forall)("x", SORT_G, body)
        try:
            fuf = qe_driver(f, cap=64, max_branches=500)
        except ResourceLimit:
            continue
        forms += 1
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        run, ref = family_evaluator(model, fuf), ref_family(model, fuf)
        for asg in assignments(model, rng, 6):
            assert run(asg) == ref(asg), (f, asg)
    assert forms == 12


def test_unassigned_variable_raises_when_it_cancels():
    # x occurs on both sides with equal coefficients and drops out of
    # lhs - rhs, but an unassigned x still raises, as in the reference
    asg = {"y": ZZ.element([1, 0]), "b": spine(ZZ, sort_ac(2))[0]}
    for a in (MainRel("lt", x + y, x, 0, BOT), PlainRel("lt", x + y, x),
              MainRel("eq", x, x, 0, B)):
        with pytest.raises(KeyError):
            ref_atom(ZZ, asg, a)
        with pytest.raises(KeyError):
            evaluate(ZZ, asg, a)
        with pytest.raises(KeyError):
            evaluator(ZZ, conj([a, PlainRel("lt", y, zero)]))(asg)


def test_compiled_relations_match_reference(rng):
    # every main and plain relation, k in -2..2, constant anchors at every
    # cut up to the rank and a variable anchor, on every model shape; the
    # terms t - u and (x + u) - x, whose x cancels
    for model in TYPED_MODELS:
        anchors = ([SortMin(sort_ac(2)), SortMin(sort_ae(2)), B]
                   + [SpineRef(sort_ac(2), "g%d" % c)
                      for c in range(model.rank + 1)])
        pts = spine(model, sort_ac(2)) + spine(model, sort_aep(2))
        same = main_assignment(model, rng, ["x"])["x"]
        asgs = [{v: model.zero() for v in "xyz"}, {v: same for v in "xyz"}]
        asgs += [main_assignment(model, rng, ["x", "y", "z"])
                 for _ in range(4)]
        for asg in asgs:
            asg["b"] = rng.choice(pts)
        for trial in range(4):
            u = rand_term(rng, ["y", "z"])
            t = x + u if trial == 0 else rand_term(rng, ["x", "y", "z"])
            rhs = x if trial == 0 else u
            m = rng.choice([1, 2, 3, 4])
            atoms = [PlainRel("lt", t, rhs), PlainRel("cong", t, rhs, m=m)]
            for aux in anchors:
                atoms.append(MainRel("congb", t, rhs, 0, aux, m=m, mp=4))
                for k in range(-2, 3):
                    atoms += [MainRel("eq", t, rhs, k, aux),
                              MainRel("lt", t, rhs, k, aux),
                              MainRel("cong", t, rhs, k, aux, m=m)]
            for a in atoms:
                run = EV._atom_fn(model, a)
                for asg in asgs:
                    assert run(asg) == ref_atom(model, asg, a), (model, a)
                if trial == 0:
                    # x cancels, but an unassigned x still raises
                    no_x = {v: e for v, e in asgs[-1].items() if v != "x"}
                    with pytest.raises(KeyError):
                        run(no_x)


def test_quantifier_alternation():
    # "every x is twice something" is refuted by a sampled odd witness
    twoz = LinTerm.var("z", 2)
    f = Forall("x", SORT_G, Exists("z", SORT_G,
                                   MainRel("eq", twoz, x, 0, BOT)))
    assert evaluate(Z_MODEL, {}, f) is False
    # over Q the claim is true, but a bounded search cannot certify a
    # universal over an infinite domain, so the oracle stays undecided
    dense = LexModel((RatComp(),))
    assert evaluate(dense, {}, f) is None


# ---------------------------------------------------------------------------
# Alpha renaming only where a binder clashes

def _atom_over(rng, names):
    t, u = rand_term(rng, names), rand_term(rng, names)
    c = rng.randint(0, 3)
    if c == 0:
        return PlainRel("lt", t, u)
    if c == 1:
        return PlainRel("cong", t, u, m=rng.choice([2, 3]))
    if c == 2:
        return MainRel("lt", t, u, rng.randint(-1, 1), A1)
    return EqDot(rng.choice([-1, 1, 2]), t)


def _qf(rng, *names):
    return rand_bool(rng, rng.randint(0, 2), lambda r: _atom_over(r, names))


def _shadowing(rng):
    return Exists("x", SORT_G, conj([_qf(rng, "x", "y"),
                                     Exists("x", SORT_G, _qf(rng, "x", "y"))]))


def _aux_shadowing(rng):
    return Exists("b", sort_ac(2), conj([
        disj([Discr(B), _qf(rng, "x", "y")]),
        Forall("b", sort_ac(2), disj([AuxLe(B, A1), _qf(rng, "x")]))]))


def _bound_and_free(rng):
    return conj([disj([PlainRel("lt", x, y), _qf(rng, "x", "y")]),
                 Exists("x", SORT_G, _qf(rng, "x", "y"))])


def _sibling_blocks(rng):
    return disj([Exists("x", SORT_G, _qf(rng, "x", "y")),
                 Forall("x", SORT_G, _qf(rng, "x", "z"))])


def _nested_forall_z(rng):
    # the shape of the benchmark's nested inputs: z is bound only, but the
    # assignments below also give z a value
    return Exists("x", SORT_G, conj([_qf(rng, "x", "y"),
                                     Forall("z", SORT_G,
                                            _qf(rng, "x", "y", "z"))]))


CLASH_CASES = [_shadowing, _aux_shadowing, _bound_and_free, _sibling_blocks]


@pytest.mark.parametrize("case", CLASH_CASES + [_nested_forall_z])
def test_renaming_rule_matches_reference(case, rng, monkeypatch):
    renamed = []
    real = EV._renamer
    monkeypatch.setattr(EV, "_renamer",
                        lambda *a: renamed.append(1) or real(*a))
    for trial in range(24):
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        f = case(rng)
        box = 2
        renamed.clear()
        run = evaluator(model, f, box)
        # one renaming for a clash, none for unique binders
        assert len(renamed) == (case in CLASH_CASES), f
        ref = ref_evaluator(model, f, box)
        for asg in assignments(model, rng, 4):
            want = ref(asg)
            assert run(asg) == want, (f, asg)
            assert evaluate(model, asg, f, box) == want, (f, asg)


def test_unique_binders_are_not_renamed(monkeypatch):
    renamed = []
    real = EV._renamer
    monkeypatch.setattr(EV, "_renamer",
                        lambda *a: renamed.append(1) or real(*a))
    z = LinTerm.var("z")
    unique = [
        PlainRel("lt", x, y),
        Exists("x", SORT_G, PlainRel("lt", x, y)),
        Exists("x", SORT_G, conj([PlainRel("lt", x, y),
                                  Forall("z", SORT_G, PlainRel("lt", z, x))])),
        # one block at two positions binds its name once
        disj([Exists("x", SORT_G, PlainRel("lt", x, y)),
              Not(Exists("x", SORT_G, PlainRel("lt", x, y)))]),
    ]
    for f in unique:
        evaluator(ZZ, f)
    assert renamed == []


def test_family_evaluator_renames_a_clashing_matrix():
    # clause 0 binds its own parameter t inside the guard; clause 1 binds b,
    # which clause 2 binds too, in another matrix (no clash)
    from oagqe.normal import FamilyUnionForm, FUClause

    T, U = AuxVar("t", sort_ac(2)), AuxVar("u", sort_ac(2))
    lt = PlainRel("lt", x, y)
    fuf = FamilyUnionForm((
        FUClause((("t", sort_ac(2)),),
                 conj([Not(AuxLe(A1, T)),
                       Exists("t", sort_ac(2),
                              conj([Discr(T), AuxLe(T, A1)]))]),
                 ((lt, True),)),
        FUClause((("u", sort_ac(2)),),
                 Exists("b", sort_ac(2), AuxLe(B, U)), ((lt, False),)),
        FUClause((), Forall("b", sort_ac(2), AuxLe(B, A1)), ((lt, True),)),
    ))
    rng = random.Random(3)
    for model in FIXTURE_MODELS:
        run, ref = family_evaluator(model, fuf), ref_family(model, fuf)
        for asg in assignments(model, rng, 6):
            asg["t"] = asg["u"] = spine(model, sort_ac(2))[-1]
            assert run(asg) == ref(asg), asg
