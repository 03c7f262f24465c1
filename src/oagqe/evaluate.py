"""Exact evaluation of formulas in concrete models.

Atoms are evaluated exactly.  Auxiliary quantifiers range over the finite
spine and are expanded.  A single main-sort existential is decided completely
by grounding its matrix (resolving every auxiliary term, case-splitting the
canonical maps applied to terms containing the bound variable) and running
the per-coordinate witness search of the solver module on the leaves of its
decision tree, taken lazily: the first witness ends the search.  Matrices
with further main-sort quantifiers, or more than 512 leaves before a
witness, fall back to a bounded candidate search and can report Unknown.

A formula is compiled once, when its `evaluator` or `family_evaluator` is
built, into a tree of closures that is then called at every assignment.
Compiling a main or plain relation reads lhs - rhs as one list of (name,
coefficient) pairs and folds a constant anchor's offset into it; an order
or equality at a constant anchor then stops at the first nonzero
coordinate above the cut, without building an element (see `_atom_fn`).
Results are memoized only at the nodes where a lookup can hit (see
`_compile`), and the memos live as long as the compiled tree.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import Optional, Union

from . import models, solver
from .models import (
    Element, LexModel, SpinePoint, ae_cut, aep_of, comp_nontrivial_quotient,
    h_cut, spine, spine_min,
)
from .models import _ac_cuts  # realized cut sets, shared with spine()
from .normal import ResourceLimit, boolean_units, disjoint_clauses
from .syntax import (
    AE, And, Atom, AuxAsymp, AuxLe, AuxTerm, AuxVar, Bottom, CongDot, Discr,
    DimFloor, DimSucc, DPred, EqDot, Exists, FALSE, Forall, Formula, Fresh,
    LinTerm, MainRel, Not, Or, PlainRel, Sc, Se, SortMin, SpineRef, SuccPlus,
    Top, TRUE, atom_aux_terms, conj, disj, free_names, main_vars, neg,
    replace_aux_terms, sort_ac, sort_ae, subformulas, substitute,
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

def _main_terms(asg: Assignment, pairs) -> list:
    """[(c, value of v)] for the (v, c) pairs; every v must be assigned."""

    terms = []
    for v, c in pairs:
        val = asg.get(v)
        if not isinstance(val, tuple):
            raise KeyError("main-sort variable %r unassigned" % v)
        terms.append((c, val))
    return terms


def eval_lin(model: LexModel, asg: Assignment, t: LinTerm) -> Element:
    terms = _main_terms(asg, t.coeffs)
    if len(terms) == 1:
        c, val = terms[0]
        return val if c == 1 else tuple([c * x for x in val])
    if not terms:
        return model.zero()
    return tuple([sum([c * val[i] for c, val in terms])
                  for i in range(model.rank)])


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
# Atom evaluation, compiled once per atom

def _difference(lhs: LinTerm, rhs: LinTerm) -> tuple:
    """lhs - rhs as (name, coefficient) pairs in name order; a name that
    cancels keeps coefficient 0, so that it must still be assigned."""

    diff = dict(lhs.coeffs)
    for v, c in rhs.coeffs:
        diff[v] = diff.get(v, 0) - c
    return tuple(sorted(diff.items()))


def _term_fn(model: LexModel, pairs, off: Element):
    """Assignment -> the element off + sum of c * value over pairs."""

    coords = range(model.rank)

    def term(asg: Assignment) -> Element:
        terms = _main_terms(asg, pairs)
        return tuple([sum([c * val[i] for c, val in terms], off[i])
                      for i in coords])

    return term


def _order_fn(model: LexModel, pairs, off: Element, cut: int, lt: bool):
    """Assignment -> truth of off + sum of c * value < 0 (lt) or = 0 (not
    lt) in G / H_cut, read from the most significant coordinate down to
    the cut: the first nonzero one decides, and no element is built."""

    coords = range(model.rank - 1, cut - 1, -1)

    def order(asg: Assignment) -> bool:
        terms = _main_terms(asg, pairs)
        for i in coords:
            s = off[i]
            for c, val in terms:
                s += c * val[i]
            if s:
                return lt and s < 0
        return not lt

    return order


def _const_aux(model: LexModel, t: AuxTerm) -> Optional[SpinePoint]:
    """The point of an anchor that names one (SortMin, a valid SpineRef)."""

    if isinstance(t, (SortMin, SpineRef)):
        try:
            return resolve_aux(model, {}, t)
        except ValueError:
            return None   # a bad reference raises when it is evaluated
    return None


def _aux_fn(model: LexModel, t: AuxTerm):
    pt = _const_aux(model, t)
    if pt is not None:
        return lambda asg: pt
    if isinstance(t, AuxVar):
        name = t.name

        def var(asg: Assignment) -> SpinePoint:
            val = asg.get(name)
            if not isinstance(val, SpinePoint):
                raise KeyError("auxiliary variable %r unassigned" % name)
            return val

        return var
    return lambda asg: resolve_aux(model, asg, t)


def _rel_test(model: LexModel, op: str, m: int, mp: int):
    """(difference, cut) -> truth of the relation op above the cut."""

    if op == "eq":
        return model.in_cut
    if op == "lt":
        return lambda d, c: model.proj_sign(d, c) < 0
    if op == "cong":
        return lambda d, c: model.member(d, c, m)
    return lambda d, c: model.member_bracket(d, c, m, mp)


def _atom_fn(model: LexModel, a: Atom):
    """Assignment -> truth value of one atom.

    A main or plain relation (plain: cut 0, no offset) is compiled from the
    pairs of its difference lhs - rhs.  At a constant anchor (SortMin, a
    valid SpineRef) the cut is resolved here and the offset k times the
    minimal positive element is folded into the difference; eq and lt then
    test it coordinate by coordinate (`_order_fn`), and cong, congb and
    plaincong build it once for the model's membership test.  At a
    variable anchor the difference is built and the cut and offset are
    read at each call.  EqDot, CongDot and DPred build their term with the
    same `_term_fn`."""

    if isinstance(a, (MainRel, PlainRel)):
        pairs = _difference(a.lhs, a.rhs)
        if isinstance(a, PlainRel):
            c, k, mp = 0, 0, 0
        else:
            pt = _const_aux(model, a.aux)
            c, k, mp = None if pt is None else pt.cut, a.k, a.mp
        test = _rel_test(model, a.op, a.m, mp)
        if c is None:
            aux = _aux_fn(model, a.aux)
            term = _term_fn(model, pairs, model.zero())

            def rel(asg: Assignment) -> bool:
                c = aux(asg).cut
                dv = term(asg)
                if k:
                    rep = model.minpos_rep(c)
                    if rep is not None:
                        dv = model.sub(dv, model.smul(k, rep))
                return test(dv, c)

            return rel
        rep = model.minpos_rep(c) if k else None
        off = model.zero() if rep is None else model.smul(-k, rep)
        if a.op in ("eq", "lt"):
            return _order_fn(model, pairs, off, c, a.op == "lt")
        term = _term_fn(model, pairs, off)
        return lambda asg: test(term(asg), c)
    if isinstance(a, (AuxLe, AuxAsymp)):
        lhs, rhs = _aux_fn(model, a.lhs), _aux_fn(model, a.rhs)
        if isinstance(a, AuxLe):
            return lambda asg: lhs(asg).cut <= rhs(asg).cut
        return lambda asg: lhs(asg).cut == rhs(asg).cut
    if isinstance(a, Discr):
        aux = _aux_fn(model, a.aux)
        return lambda asg: model.quotient_discrete(aux(asg).cut)
    if isinstance(a, (DimSucc, DimFloor)):
        aux = _aux_fn(model, a.aux)
        above = a.s + 1 if isinstance(a, DimSucc) else None

        def dim(asg: Assignment) -> bool:
            alpha = aux(asg)
            return models.dim_query(model, a.p, (alpha, above),
                                    (alpha, a.s)) == a.ell

        return dim
    if isinstance(a, (EqDot, CongDot)):
        t = _term_fn(model, a.t.coeffs, model.zero())
        offs = [(c, model.smul(a.k, model.minpos_rep(c)))
                for c in _discrete_cuts(model)]
        test = (model.in_cut if isinstance(a, EqDot)
                else lambda d, c: model.member(d, c, a.m))

        def dotted(asg: Assignment) -> bool:
            tv = t(asg)
            return any(test(model.sub(tv, off), c) for c, off in offs)

        return dotted
    if isinstance(a, DPred):
        t = _term_fn(model, a.t.coeffs, model.zero())
        n, ns = a.p ** a.r, a.p ** a.s

        def dpred(asg: Assignment) -> bool:
            tv = t(asg)
            c = h_cut(model, tv, n)
            return (model.member_bracket(tv, c, n, ns)
                    and not model.member(tv, c, n))

        return dpred
    raise TypeError("not an atom: %r" % (a,))


def eval_atom(model: LexModel, asg: Assignment, a: Atom) -> bool:
    return _atom_fn(model, a)(asg)


def _discrete_cuts(model: LexModel) -> list[int]:
    return [c for c in range(model.rank) if model.quotient_discrete(c)]


# ---------------------------------------------------------------------------
# Alpha renaming (unique bound variables)

def _binders_clash(f: Formula, taken) -> bool:
    """Whether a quantifier of f binds a name in taken (the free names) or
    a name that another quantifier of f binds."""

    bound = set()
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            if g.var in taken or g.var in bound:
                return True
            bound.add(g.var)
    return False


def _renamer(fresh: Fresh, free: dict, memo: dict):
    """A walk(g, ren) that gives every quantifier of g a fresh variable,
    ren mapping the outer bound names to their new (name, sort).  memo is
    keyed by value on (node, renaming of its free names), so equal blocks
    under the same renaming share one renamed copy; free is a `free_names`
    cache."""

    def walk(g: Formula, ren: dict) -> Formula:
        live = tuple(sorted((v, ren[v][0]) for v in ren
                            if v in free_names(g, free)))
        key = (g, live)
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

    if var not in main_vars(f):
        return TRUE if eval_atom(model, asg, f) else FALSE

    # case-split away any canonical map applied to a term containing var
    for term in atom_aux_terms(f):
        if var in main_vars(term):
            cases = [conj(conds + [replace_aux_terms(f, {term: _ref(pt)})])
                     for pt, conds in _classify(model, var, term)]
            return ground_for_var(model, asg, var, disj(cases))
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
# Disjoint clauses over the remaining atoms

def dnf_clauses(f: Formula, cap: int = 512):
    """The leaves of the grounded matrix f over its atoms, lazily.  Its own
    name because perfbench/tracing.py patches it, which `--trace 1` and
    `--determinism` runs depend on."""

    return disjoint_clauses(f, boolean_units(f), cap)


# ---------------------------------------------------------------------------
# Compiling one clause to solver records

_TRUE = object()
_FALSE = object()


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
                if comp_nontrivial_quotient(model.comps[i], m)]
        alts.append([solver.SumCong(m, r, u, True)])
        return alts
    if positive:
        return [[solver.Div(cut, m, r, u)]]
    alts = [[solver.NDiv(i, m, r, u)] for i in range(cut, K)
            if comp_nontrivial_quotient(model.comps[i], m)]
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


def compile_clause(model, asg, var, lits) -> list[solver.Clause]:
    alt_lists = []
    for atom, pol in lits:
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
                       box: int, run_body) -> Tri:
    """Exists var. body, for one assignment of the other variables.

    The grounded search is complete; each leaf of the grounded matrix is
    compiled and solved as it comes, and the first witness ends it.  When
    the body cannot be grounded, has more than 512 leaves before a witness
    or reaches a solver limit, run_body is tried at the fallback points."""

    try:
        g = ground_for_var(model, asg, var, body)
        for lits, _ in dnf_clauses(g):
            for cl in compile_clause(model, asg, var, lits):
                if solver.solve_clause(model, cl) is not None:
                    return True
        return False
    except (Uncompilable, ResourceLimit, solver.SolverLimit):
        pass
    # bounded fallback: only a True answer is ever definite here
    for cand in _fallback_candidates(model, asg, box):
        asg2 = dict(asg)
        asg2[var] = cand
        if run_body(asg2) is True:
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
    # adding each component's zero makes the coordinate an int on Z and a
    # Fraction elsewhere
    axes = [[z + c for c in range(-radius, radius + 1)]
            for z in model.zero()]
    for e in itertools.product(*axes):
        if model.sum_mod is not None and sum(e) % model.sum_mod != 0:
            continue
        if e not in seen:
            seen.add(e)
            yield e


_MISS = object()


def _memoized(run, names: tuple):
    """run with its results cached per restriction of the assignment to the
    sorted names; an unassigned name keys as missing."""

    memo: dict = {}
    if not names:
        get = lambda asg: ()
    else:
        get = itemgetter(*names)

    def cached(asg: Assignment) -> Tri:
        try:
            key = get(asg)
        except KeyError:
            key = tuple([asg.get(v, _MISS) for v in names])
        out = memo.get(key, _MISS)
        if out is _MISS:
            out = memo[key] = run(asg)
        return out

    return cached


def _fold(fns, stop: bool):
    """Kleene conjunction (stop False) or disjunction (stop True)."""

    def run(asg: Assignment) -> Tri:
        out: Tri = not stop
        for fn in fns:
            v = fn(asg)
            if v is stop:
                return stop
            if v is None:
                out = None
        return out

    return run


def _compile(model: LexModel, box: int, varied: frozenset, roots,
             free: dict) -> list:
    """Each formula in roots compiled into a tree of closures
    run(assignment) -> Tri; the closures are returned in order.

    Equal subformulas are compiled once, keyed by value across the roots;
    free is the `free_names` cache of the caller's renaming, whose answers
    serve here too.  A node keeps a memo of its results, keyed by the
    values of its free variables, only where a lookup can hit: a main-sort
    quantifier, whose decision is the expensive step, or a node whose free
    names are a strict subset of the names the caller varies, so that calls
    differing only outside them share one entry.  The body of a main-sort
    quantifier is compiled when the bounded fallback first needs it; the
    complete search grounds the body itself.  The memos live as long as the
    returned closures, and no closure refers back to the compile caches, so
    that dropping the closures frees the memos at once."""

    runs: dict = {}

    def comp(g: Formula):
        run = runs.get(g)
        if run is not None:
            return run
        if isinstance(g, (Top, Bottom)):
            val = isinstance(g, Top)
            runs[g] = run = lambda asg: val
            return run
        if isinstance(g, Atom):
            run = _atom_fn(model, g)
        elif isinstance(g, Not):
            arg = comp(g.arg)
            run = lambda asg: k_not(arg(asg))
        elif isinstance(g, (And, Or)):
            run = _fold([comp(h) for h in g.args], isinstance(g, Or))
        elif isinstance(g, (Exists, Forall)) and g.sort.is_main:
            run = _decide(model, box, varied, g)
        elif isinstance(g, (Exists, Forall)):
            run = _sweep(comp(g.body), g.var, spine(model, g.sort),
                         k_any if isinstance(g, Exists) else k_all)
        else:
            raise TypeError("not a formula: %r" % (g,))
        names = free_names(g, free)
        if (isinstance(g, (Exists, Forall)) and g.sort.is_main
                or names < varied):
            run = _memoized(run, tuple(sorted(names)))
        runs[g] = run
        return run

    out = [comp(g) for g in roots]
    runs.clear()
    return out


def _decide(model: LexModel, box: int, varied: frozenset, g: Formula):
    var = g.var
    body = g.body if isinstance(g, Exists) else Not(g.body)
    compiled: list = []

    def run_body(asg: Assignment) -> Tri:
        if not compiled:
            compiled.extend(_compile(model, box, varied, [body], {}))
        return compiled[0](asg)

    if isinstance(g, Exists):
        return lambda asg: decide_exists_main(model, asg, var, body, box,
                                              run_body)
    return lambda asg: k_not(decide_exists_main(model, asg, var, body, box,
                                                run_body))


def _sweep(run_body, var: str, pts, fold):
    """An auxiliary quantifier: fold (k_any or k_all) over the spine."""

    def sweep(asg: Assignment) -> Tri:
        asg2 = dict(asg)

        def vals():
            for pt in pts:
                asg2[var] = pt
                yield run_body(asg2)

        return fold(vals())

    return sweep


def evaluate(model: LexModel, asg: Assignment, f: Formula,
             box: int = DEFAULT_BOX) -> Tri:
    """Public entry for one-shot evaluation: a throwaway evaluator."""

    return evaluator(model, f, box)(asg)


def evaluator(model: LexModel, f: Formula, box: int = DEFAULT_BOX):
    """A reusable assignment -> truth value function for one formula;
    three-valued, it never returns a wrong definite answer.

    The formula is compiled once into a tree of closures (see `_compile`).
    Its bound variables are first alpha-renamed apart, but only when a
    binder clashes: a name bound twice, or a bound name that is also free.
    Otherwise f already has the form renaming gives, up to the choice of
    names, and the closures read names only to look them up in the
    assignment, so compiling f as it is gives the same answers.  (A
    quantifier then overwrites a caller's value for its own name, one not
    free in f, where a renamed one would add its value beside it; only the
    bounded fallback, which tries every main value of the assignment and
    answers True or unknown, can see the difference.)  Both steps read one
    `free_names` cache, dropped when the build ends.  The
    caller varies the free variables of f, so a node keeps a memo only when
    it is a main-sort quantifier or its free variables are a strict subset
    of those of f: for example a literal over x alone, asked at one x for
    many y.

    The memos live as long as the returned function and grow by one entry
    per memoized node and distinct restricted assignment.  Callers that
    evaluate at many points keep one evaluator per formula for the length
    of one job (one `decompose` or `verify_decomposition` call, one
    `oagqe check` run) and drop it afterwards, which frees the memos."""

    free: dict = {}
    varied = free_names(f, free)
    if _binders_clash(f, varied):
        f = _renamer(Fresh("b", varied), free, {})(f, {})
        # renaming keeps the free names; a main-sort quantifier at the root
        # then compiles without walking its body
        free[f] = varied
    return _compile(model, box, varied, [f], free)[0]


def family_evaluator(model: LexModel, fuf, box: int = DEFAULT_BOX):
    """Assignment -> list of per-clause truth values for a family union form.

    All clause matrices are compiled by one `_compile` call, with one
    `free_names` cache, so literals and guards shared between clauses are
    compiled once and share one memo.  The caller varies the free variables
    of the matrices and the theta parameters, which are swept over the
    spine points of their sorts directly, clause by clause.  A matrix is
    alpha-renamed first only when one of its binders clashes, by the rule
    of `evaluator` with the theta names counted as free; the renamed
    matrices share one renaming pass and one source of fresh names.  A
    node is memoized when it is a main-sort quantifier or its free
    variables are a strict subset of these, such as a guard literal over
    theta alone.  The memos live as long as the returned function."""

    matrices = [cl.matrix() for cl in fuf.clauses]
    free: dict = {}
    varied = set()
    for m in matrices:
        varied |= free_names(m, free)
    fresh = Fresh("b", varied)
    sweeps = []
    for cl in fuf.clauses:
        varied.update(name for name, _ in cl.theta)
        sweeps.append((tuple(name for name, _ in cl.theta),
                       [spine(model, s) for _, s in cl.theta]))
    walk = _renamer(fresh, free, {})
    runs = _compile(model, box, frozenset(varied),
                    [walk(m, {}) if _binders_clash(m, varied) else m
                     for m in matrices], free)

    def run(asg: Assignment) -> list:
        out = []
        for (names, axes), mat in zip(sweeps, runs):
            asg2 = dict(asg)
            val: Tri = False
            for combo in itertools.product(*axes):
                asg2.update(zip(names, combo))
                v = mat(asg2)
                if v is True:
                    val = True
                    break
                if v is None:
                    val = None
            out.append(val)
        return out

    return run
