"""Exact evaluation of formulas in concrete models.

Atoms are evaluated exactly.  Auxiliary quantifiers range over the finite
spine and are expanded.  A single main-sort existential is decided completely
by grounding its matrix (resolving every auxiliary term, case-splitting the
canonical maps applied to terms containing the bound variable) and running
the per-coordinate witness search of the solver module.  Only matrices that
contain further main-sort quantifiers fall back to a bounded candidate search
and can report Unknown.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from . import solver
from .models import (
    Element, LexModel, SpinePoint, aep_of, spine, spine_min,
)
from .models import _ac_cuts  # realized cut sets, shared with spine()
from .syntax import (
    AC, AE, AEP, And, Atom, AuxAsymp, AuxLe, AuxTerm, AuxVar, Bottom,
    CongDot, Discr, DimFloor, DimSucc, DPred, EqDot, Exists, FALSE, Forall,
    Formula, Fresh, LinTerm, MainRel, Not, Or, PlainRel, Sc, Se, Sort,
    SortMin, SpineRef, SuccPlus, Top, TRUE, conj, disj, free_vars, neg, nnf,
    sort_ac, sort_ae, substitute,
)

Value = Union[Element, SpinePoint]
Assignment = dict[str, Value]
Tri = Optional[bool]


class Uncompilable(Exception):
    """The matrix cannot be grounded for the complete search."""


# ---------------------------------------------------------------------------
# Three-valued connectives (Kleene)

def k_not(v: Tri) -> Tri:
    return None if v is None else (not v)


def k_all(vals) -> Tri:
    saw_unknown = False
    for v in vals:
        if v is False:
            return False
        if v is None:
            saw_unknown = True
    return None if saw_unknown else True


def k_any(vals) -> Tri:
    saw_unknown = False
    for v in vals:
        if v is True:
            return True
        if v is None:
            saw_unknown = True
    return None if saw_unknown else False


# ---------------------------------------------------------------------------
# Term evaluation

def eval_lin(model: LexModel, asg: Assignment, t: LinTerm) -> Element:
    out = model.zero()
    for v, c in t.coeffs:
        val = asg.get(v)
        if not isinstance(val, tuple):
            raise KeyError("main-sort variable %r unassigned" % v)
        out = model.add(out, model.smul(c, val))
    return out


def h_cut(model: LexModel, a: Element, n: int) -> int:
    """Largest cut c with a outside H_c + nG; 0 when a is in nG."""

    cuts = [c for c in range(model.rank + 1) if not model.member(a, c, n)]
    return max(cuts) if cuts else 0


def ae_cut(model: LexModel, a: Element, p: int) -> int:
    """Cut of the union of the realized Ac(p)-groups avoiding a."""

    v = model.significance(a)
    best = 0
    for c in _ac_cuts(model, p):
        if c < v:
            best = c
    return best


def resolve_aux(model: LexModel, asg: Assignment, t: AuxTerm) -> SpinePoint:
    if isinstance(t, AuxVar):
        val = asg.get(t.name)
        if not isinstance(val, SpinePoint):
            raise KeyError("auxiliary variable %r unassigned" % t.name)
        return val
    if isinstance(t, Sc):
        a = eval_lin(model, asg, t.arg)
        return SpinePoint(sort_ac(t.p), h_cut(model, a, t.p ** t.r))
    if isinstance(t, Se):
        a = eval_lin(model, asg, t.arg)
        return SpinePoint(sort_ae(t.p), ae_cut(model, a, t.p))
    if isinstance(t, SuccPlus):
        inner = resolve_aux(model, asg, t.arg)
        if inner.sort.kind != AE:
            raise ValueError("successor applied to a non-Ae point")
        return aep_of(model, inner)
    if isinstance(t, SortMin):
        return spine_min(model, t.sort)
    if isinstance(t, SpineRef):
        if not t.class_id.startswith("g"):
            raise ValueError("bad spine reference %r" % (t.class_id,))
        return SpinePoint(t.sort, int(t.class_id[1:]))
    raise TypeError("not an auxiliary term: %r" % (t,))


# ---------------------------------------------------------------------------
# Atom evaluation

def eval_atom(model: LexModel, asg: Assignment, a: Atom) -> bool:
    if isinstance(a, MainRel):
        alpha = resolve_aux(model, asg, a.aux)
        c = alpha.cut
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
        from .models import dim_query
        alpha = resolve_aux(model, asg, a.aux)
        return dim_query(model, a.p, (alpha, a.s + 1), (alpha, a.s)) == a.ell
    if isinstance(a, DimFloor):
        from .models import dim_query
        alpha = resolve_aux(model, asg, a.aux)
        return dim_query(model, a.p, (alpha, None), (alpha, a.s)) == a.ell
    if isinstance(a, EqDot):
        t = eval_lin(model, asg, a.t)
        for c in _discrete_cuts(model):
            d = model.sub(t, model.smul(a.k, model.minpos_rep(c)))
            if model.in_cut(d, c):
                return True
        return False
    if isinstance(a, CongDot):
        t = eval_lin(model, asg, a.t)
        for c in _discrete_cuts(model):
            d = model.sub(t, model.smul(a.k, model.minpos_rep(c)))
            if model.member(d, c, a.m):
                return True
        return False
    if isinstance(a, DPred):
        t = eval_lin(model, asg, a.t)
        c = h_cut(model, t, a.p ** a.r)
        return (model.member_bracket(t, c, a.p ** a.r, a.p ** a.s)
                and not model.member(t, c, a.p ** a.r))
    raise TypeError("not an atom: %r" % (a,))


def _discrete_cuts(model: LexModel) -> list[int]:
    return [c for c in range(model.rank) if model.quotient_discrete(c)]


# ---------------------------------------------------------------------------
# Alpha renaming (unique bound variables)

def _free_names(f: Formula, cache: dict) -> frozenset:
    """Free variable names of a node, memoized by identity so that shared
    subformulas are visited once.  The cache holds a reference to each node
    to keep ids stable."""

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


def _renamer(fresh: Fresh, freec: dict, memo: dict):

    def walk(g: Formula, ren: dict) -> Formula:
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


def alpha_rename(f: Formula) -> Formula:
    fresh = Fresh("b")
    fresh.reserve(free_vars(f).keys())
    return _renamer(fresh, {}, {})(f, {})


# ---------------------------------------------------------------------------
# Grounding a matrix for one distinguished main variable

def _ref(pt: SpinePoint) -> SpineRef:
    return SpineRef(pt.sort, pt.class_id)


def _zero() -> LinTerm:
    return LinTerm.zero()


def _classify(model: LexModel, var: str, term: AuxTerm):
    """Finite case split 'term = point' for an auxiliary term whose argument
    contains var; yields (point, [condition atoms])."""

    if isinstance(term, Sc):
        n = term.p ** term.r
        cuts = _ac_cuts(model, term.p)
        for idx, c in enumerate(cuts):
            conds: list[Formula] = []
            if idx + 1 < len(cuts):
                conds.append(MainRel("cong", term.arg, _zero(), 0,
                                     _ref(SpinePoint(sort_ac(term.p),
                                                     cuts[idx + 1])), m=n))
            if c > 0:
                conds.append(Not(MainRel("cong", term.arg, _zero(), 0,
                                         _ref(SpinePoint(sort_ac(term.p), c)),
                                         m=n)))
            yield SpinePoint(sort_ac(term.p), c), conds
        return
    if isinstance(term, Se):
        cuts = _ac_cuts(model, term.p)
        for idx, c in enumerate(cuts):
            conds = []
            if idx + 1 < len(cuts):
                conds.append(MainRel("eq", term.arg, _zero(), 0,
                                     _ref(SpinePoint(sort_ac(term.p),
                                                     cuts[idx + 1]))))
            if c > 0:
                conds.append(Not(MainRel("eq", term.arg, _zero(), 0,
                                         _ref(SpinePoint(sort_ac(term.p),
                                                         c)))))
            yield SpinePoint(sort_ae(term.p), c), conds
        return
    if isinstance(term, SuccPlus):
        for pt, conds in _classify(model, var, term.arg):
            yield aep_of(model, pt), conds
        return
    raise Uncompilable("cannot case-split %r" % (term,))


def _aux_has_var(term: AuxTerm, var: str) -> bool:
    from .syntax import aux_lin_args
    return any(var in lt.vars() for lt in aux_lin_args(term))


def _atom_main_vars(a: Atom) -> set[str]:
    from .syntax import atom_lin_terms
    out: set[str] = set()
    for lt in atom_lin_terms(a):
        out |= lt.vars()
    return out


def ground_for_var(model: LexModel, asg: Assignment, var: str,
                   f: Formula) -> Formula:
    """Rewrite f so that the only remaining atoms mention var with grounded
    (model-bound) anchors; everything else is evaluated away."""

    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return neg(ground_for_var(model, asg, var, f.arg))
    if isinstance(f, And):
        return conj(ground_for_var(model, asg, var, g) for g in f.args)
    if isinstance(f, Or):
        return disj(ground_for_var(model, asg, var, g) for g in f.args)
    if isinstance(f, (Exists, Forall)):
        if f.sort.is_main:
            raise Uncompilable("nested main-sort quantifier")
        parts = []
        for pt in spine(model, f.sort):
            body = substitute(f.body, {f.var: _ref(pt)})
            parts.append(ground_for_var(model, asg, var, body))
        return conj(parts) if isinstance(f, Forall) else disj(parts)
    if not isinstance(f, Atom):
        raise TypeError("not a formula: %r" % (f,))

    if var not in _atom_main_vars(f):
        return TRUE if eval_atom(model, asg, f) else FALSE

    # case-split away any canonical map applied to a term containing var
    if isinstance(f, MainRel) and _aux_has_var(f.aux, var):
        cases = []
        for pt, conds in _classify(model, var, f.aux):
            repl = MainRel(f.op, f.lhs, f.rhs, f.k, _ref(pt), f.m, f.mp)
            cases.append(conj(list(conds) + [repl]))
        return ground_for_var(model, asg, var, disj(cases))
    if isinstance(f, (AuxLe, AuxAsymp)):
        if _aux_has_var(f.lhs, var):
            cases = [conj(list(conds) + [type(f)(_ref(pt), f.rhs)])
                     for pt, conds in _classify(model, var, f.lhs)]
            return ground_for_var(model, asg, var, disj(cases))
        if _aux_has_var(f.rhs, var):
            cases = [conj(list(conds) + [type(f)(f.lhs, _ref(pt))])
                     for pt, conds in _classify(model, var, f.rhs)]
            return ground_for_var(model, asg, var, disj(cases))
        return TRUE if eval_atom(model, asg, f) else FALSE
    if isinstance(f, (Discr, DimSucc, DimFloor)):
        term = f.aux
        if _aux_has_var(term, var):
            cases = []
            for pt, conds in _classify(model, var, term):
                if isinstance(f, Discr):
                    repl: Atom = Discr(_ref(pt))
                elif isinstance(f, DimSucc):
                    repl = DimSucc(f.p, f.s, f.ell, _ref(pt))
                else:
                    repl = DimFloor(f.p, f.s, f.ell, _ref(pt))
                cases.append(conj(list(conds) + [repl]))
            return ground_for_var(model, asg, var, disj(cases))
        return TRUE if eval_atom(model, asg, f) else FALSE
    if isinstance(f, EqDot):
        cases = [MainRel("eq", f.t, _zero(), f.k,
                         _ref(SpinePoint(sort_ac(2), c)))
                 for c in _discrete_cuts(model)]
        return ground_for_var(model, asg, var, disj(cases))
    if isinstance(f, CongDot):
        cases = [MainRel("cong", f.t, _zero(), f.k,
                         _ref(SpinePoint(sort_ac(2), c)), m=f.m)
                 for c in _discrete_cuts(model)]
        return ground_for_var(model, asg, var, disj(cases))
    if isinstance(f, DPred):
        n, ns = f.p ** f.r, f.p ** f.s
        cases = []
        for pt, conds in _classify(model, var, Sc(f.p, f.r, f.t)):
            cases.append(conj(list(conds) + [
                MainRel("congb", f.t, _zero(), 0, _ref(pt), m=n, mp=ns),
                Not(MainRel("cong", f.t, _zero(), 0, _ref(pt), m=n)),
            ]))
        return ground_for_var(model, asg, var, disj(cases))
    # MainRel / PlainRel with grounded anchor: keep for compilation
    return f


# ---------------------------------------------------------------------------
# DNF over the remaining atoms

def dnf_clauses(f: Formula, cap: int = 512) -> list[dict[Atom, bool]]:
    f = nnf(f)

    def go(g: Formula) -> list[dict[Atom, bool]]:
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
        if isinstance(g, And):
            acc: list[dict[Atom, bool]] = [{}]
            for h in g.args:
                nxt = []
                for left in acc:
                    for right in go(h):
                        merged = dict(left)
                        clash = False
                        for a, pol in right.items():
                            if merged.get(a, pol) != pol:
                                clash = True
                                break
                            merged[a] = pol
                        if not clash:
                            nxt.append(merged)
                if len(nxt) > cap:
                    raise Uncompilable("clause cap exceeded")
                acc = nxt
            return acc
        raise Uncompilable("quantifier left in matrix")

    return go(f)


# ---------------------------------------------------------------------------
# Compiling one clause to solver records

_TRUE = object()
_FALSE = object()


def _ndiv_feasible(model: LexModel, i: int, m: int) -> bool:
    from .models import IntComp, LocComp, RatComp, _primes_of
    comp = model.comps[i]
    if isinstance(comp, RatComp):
        return False
    if isinstance(comp, LocComp):
        return any(comp.m % p != 0 for p in _primes_of(m))
    return m > 1


def _cong_alternatives(model, cut, m, r, u, positive):
    K = model.rank
    if r == 0:
        ok = model.member(u, cut, m)
        return _TRUE if ok == positive else _FALSE
    if m == 1 or cut >= K:
        return _TRUE if positive else _FALSE
    if model.sum_mod is not None and cut == 0:
        if positive:
            return [[solver.SumCong(m, r, u, False)]]
        alts = [[solver.NDiv(i, m, r, u)] for i in range(K)
                if _ndiv_feasible(model, i, m)]
        alts.append([solver.SumCong(m, r, u, True)])
        return alts
    if positive:
        return [[solver.Div(cut, m, r, u)]]
    alts = [[solver.NDiv(i, m, r, u)] for i in range(cut, K)
            if _ndiv_feasible(model, i, m)]
    return alts if alts else _FALSE


def _literal_alternatives(model, asg, var, atom: Atom, positive: bool):
    """List of record-list alternatives, or _TRUE/_FALSE."""

    if isinstance(atom, MainRel):
        alpha = resolve_aux(model, asg, atom.aux)
        c = alpha.cut
        d = atom.lhs - atom.rhs
        r = d.coeff(var)
        u = eval_lin(model, asg, d.without(var))
        if atom.k != 0:
            rep = model.minpos_rep(c)
            if rep is not None:
                u = model.sub(u, model.smul(atom.k, rep))
        if atom.op == "eq":
            if r == 0:
                ok = model.in_cut(u, c)
                return _TRUE if ok == positive else _FALSE
            return [[solver.Lex("eq" if positive else "ne", c, r, u)]]
        if atom.op == "lt":
            if r == 0:
                ok = model.proj_sign(u, c) < 0
                return _TRUE if ok == positive else _FALSE
            return [[solver.Lex("lt" if positive else "ge", c, r, u)]]
        if atom.op == "cong":
            return _cong_alternatives(model, c, atom.m, r, u, positive)
        # bracket congruence
        if c >= model.rank:
            return _TRUE if positive else _FALSE
        return _cong_alternatives(model, c + 1, gcd(atom.m, atom.mp), r, u,
                                  positive)
    if isinstance(atom, PlainRel):
        d = atom.lhs - atom.rhs
        r = d.coeff(var)
        u = eval_lin(model, asg, d.without(var))
        if atom.op == "lt":
            if r == 0:
                ok = model.sign(u) < 0
                return _TRUE if ok == positive else _FALSE
            return [[solver.Lex("lt" if positive else "ge", 0, r, u)]]
        return _cong_alternatives(model, 0, atom.m, r, u, positive)
    raise Uncompilable("atom %r not compilable" % (atom,))


def compile_clause(model, asg, var,
                   lits: dict[Atom, bool]) -> list[solver.Clause]:
    alt_lists = []
    for atom, pol in lits.items():
        alts = _literal_alternatives(model, asg, var, atom, pol)
        if alts is _TRUE:
            continue
        if alts is _FALSE or alts == []:
            return []
        alt_lists.append(alts)
    out = []
    for combo in itertools.product(*alt_lists):
        cl = solver.Clause(lex=[], div=[], ndiv=[], sums=[])
        for recs in combo:
            for rec in recs:
                if isinstance(rec, solver.Lex):
                    cl.lex.append(rec)
                elif isinstance(rec, solver.Div):
                    cl.div.append(rec)
                elif isinstance(rec, solver.NDiv):
                    cl.ndiv.append(rec)
                else:
                    cl.sums.append(rec)
        if model.sum_mod is not None:
            cl.sums.append(solver.SumCong(1, 1, model.zero(), False))
        out.append(cl)
    return out


# ---------------------------------------------------------------------------
# Formula evaluation

DEFAULT_BOX = 8


def decide_exists_main(model, asg: Assignment, var: str, body: Formula,
                       box: int, memo: dict = None) -> Tri:
    try:
        g = ground_for_var(model, asg, var, body)
        clauses = dnf_clauses(g)
        for lits in clauses:
            for cl in compile_clause(model, asg, var, lits):
                w = solver.solve_clause(model, cl)
                if w is not None:
                    return True
        return False
    except (Uncompilable, solver.SolverLimit):
        pass
    # bounded fallback: only a True answer is ever definite here
    for cand in _fallback_candidates(model, asg, box):
        asg2 = dict(asg)
        asg2[var] = cand
        if eval_formula(model, asg2, body, box, memo) is True:
            return True
    return None


def _fallback_candidates(model, asg: Assignment, box: int):
    params = [v for v in asg.values() if isinstance(v, tuple)]
    seen = set()
    for e in params:
        if e not in seen:
            seen.add(e)
            yield e
    radius = min(box, 3 if model.rank >= 3 else box)
    axes = [range(-radius, radius + 1)] * model.rank
    for coords in itertools.product(*axes):
        e = tuple(Fraction(c) for c in coords)
        if model.sum_mod is not None and sum(e) % model.sum_mod != 0:
            continue
        if e not in seen:
            seen.add(e)
            yield e


_MISS = object()


def eval_formula(model: LexModel, asg: Assignment, f: Formula,
                 box: int = DEFAULT_BOX, memo: dict = None) -> Tri:
    """Three-valued evaluation; never returns a wrong definite answer.

    The optional memo caches results per (node identity, restriction of the
    assignment to the node's free variables), so shared subformulas of large
    elimination outputs are evaluated once per distinct environment."""

    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if memo is not None:
        names = _free_names(f, memo["free"])
        key = (id(f), tuple(sorted((v, asg[v]) for v in names if v in asg)))
        hit = memo["vals"].get(key, _MISS)
        if hit is not _MISS:
            return hit
    if isinstance(f, Atom):
        out = eval_atom(model, asg, f)
    elif isinstance(f, Not):
        out = k_not(eval_formula(model, asg, f.arg, box, memo))
    elif isinstance(f, And):
        out = k_all(eval_formula(model, asg, g, box, memo) for g in f.args)
    elif isinstance(f, Or):
        out = k_any(eval_formula(model, asg, g, box, memo) for g in f.args)
    elif isinstance(f, Exists) and f.sort.is_main:
        out = decide_exists_main(model, asg, f.var, f.body, box, memo)
    elif isinstance(f, Forall) and f.sort.is_main:
        out = k_not(decide_exists_main(model, asg, f.var, Not(f.body),
                                       box, memo))
    elif isinstance(f, (Exists, Forall)):
        vals = []
        for pt in spine(model, f.sort):
            asg2 = dict(asg)
            asg2[f.var] = pt
            vals.append(eval_formula(model, asg2, f.body, box, memo))
        out = k_any(vals) if isinstance(f, Exists) else k_all(vals)
    else:
        raise TypeError("not a formula: %r" % (f,))
    if memo is not None:
        memo["vals"][key] = out
    return out


def evaluate(model: LexModel, asg: Assignment, f: Formula,
             box: int = DEFAULT_BOX) -> Tri:
    """Public entry for one-shot evaluation: a throwaway evaluator."""

    return evaluator(model, f, box)(asg)


def evaluator(model: LexModel, f: Formula, box: int = DEFAULT_BOX):
    """A reusable assignment -> truth value function for one formula.

    Bound variables are alpha-renamed once, so that shadowing cannot
    confuse assignment extension, and the result memo is shared across
    calls; the memo keys include the restriction of each assignment to the
    relevant free variables, so sharing is sound.

    The memo lives as long as the returned function and grows by one entry
    per node and distinct restricted assignment.  Callers that evaluate at
    many points keep one evaluator per formula for the length of one job
    (one `decompose` or `verify_decomposition` call, one `oagqe check`
    run) and drop it afterwards, which frees the memo."""

    g = alpha_rename(f)
    memo = {"free": {}, "vals": {}}

    def run(asg: Assignment) -> Tri:
        return eval_formula(model, asg, g, box, memo)

    return run


def family_evaluator(model: LexModel, fuf, box: int = DEFAULT_BOX):
    """Assignment -> list of per-clause truth values for a family union form.

    All clause matrices go through one renaming pass and one shared memo, so
    literals and guards shared between clauses are evaluated once per
    assignment.  The theta parameters are swept over the spine points of
    their sorts directly, clause by clause."""

    matrices = [cl.matrix() for cl in fuf.clauses]
    fresh = Fresh("b")
    freec: dict = {}
    for m in matrices:
        fresh.reserve(_free_names(m, freec))
    walk = _renamer(fresh, freec, {})
    renamed = [walk(m, {}) for m in matrices]
    thetas = [cl.theta for cl in fuf.clauses]
    memo = {"free": {}, "vals": {}}

    def run(asg: Assignment) -> list:
        out = []
        for theta, mat in zip(thetas, renamed):
            axes = [spine(model, s) for _, s in theta]
            val: Tri = False
            for combo in itertools.product(*axes):
                asg2 = dict(asg)
                for (name, _), pt in zip(theta, combo):
                    asg2[name] = pt
                v = eval_formula(model, asg2, mat, box, memo)
                if v is True:
                    val = True
                    break
                if v is None:
                    val = None
            out.append(val)
        return out

    return run
