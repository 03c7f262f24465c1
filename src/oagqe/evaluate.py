"""Exact evaluation of formulas in concrete models.

Atoms are evaluated exactly.  Auxiliary quantifiers range over the finite
spine and are expanded.  A main-sort existential is decided completely by
grounding its matrix (resolving every auxiliary term, case-splitting the
canonical maps applied to terms containing the bound variable) and running
the per-coordinate witness search of the solver module on the leaves of its
decision tree, taken lazily: the first witness ends the search.  Main-sort
quantifiers nested in the matrix are first eliminated relative to the
auxiliary sorts (`eliminate._push_out_main`).  A decision answers Unknown
only when it reaches a limit: the eliminator's, the solver's, or more than
LEAF_CAP (512) leaves or solver clauses before a witness.

A formula is compiled as it is written, once, when its `evaluator` or
`family_evaluator` is built, into a tree of closures that is then called
at every assignment; bound names are not renamed, since each quantifier
sets its own variable in a copy of the assignment.
Compiling a main or plain relation reads lhs - rhs as one list of (name,
coefficient) pairs and folds a constant anchor's offset into it; an order
or equality at a constant anchor then stops at the first nonzero
coordinate above the cut, without building an element (see `_atom_fn`).
Results are memoized only at the nodes where a lookup can hit (see
`_compile`), and the memos live as long as the compiled tree.  A node's
free names are read only for its memo key.  The root of an `evaluator`
keeps no memo, as its key would be the whole assignment, so a one-shot
call on a main-quantified formula reads no names at all.
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
from .eliminate import _push_out_main
from .normal import OutsideFragment, ResourceLimit, disjoint_clauses
from .syntax import (
    AE, And, Atom, AuxAsymp, AuxLe, AuxTerm, AuxVar, Bottom, CongDot, Discr,
    DimFloor, DimSucc, DPred, EqDot, Exists, FALSE, Forall, Formula, Fresh,
    LinTerm, MainRel, Not, Or, PlainRel, Sc, Se, SortMin, SpineRef, SuccPlus,
    Top, TRUE, all_names, atom_aux_terms, conj, disj, free_names, main_rel,
    main_vars, neg, replace_aux_terms, sort_ac, sort_ae, substitute,
)

Value = Union[Element, SpinePoint]
Assignment = dict[str, Value]
Tri = Optional[bool]


class _MainQuantifier(Exception):
    """Grounding met a main-sort quantifier, which `_decide` eliminates."""


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
        for pt in spine(model, t.sort):
            if pt.class_id == t.class_id:
                return pt
        raise ValueError("spine reference %s names no point of %r"
                         % (t.class_id, t.sort))
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
# Grounding a matrix for one distinguished main variable

def _ref(pt: SpinePoint) -> SpineRef:
    return SpineRef(pt.sort, pt.class_id)


def _classify(model: LexModel, term: AuxTerm):
    """Finite case split 'term = point' for an auxiliary term whose argument
    contains the distinguished variable; yields (point, [condition atoms]).
    Sc and Se differ only in the relation, modulus and sort of the point."""

    if isinstance(term, SuccPlus):
        for pt, conds in _classify(model, term.arg):
            yield aep_of(model, pt), conds
        return
    if isinstance(term, Sc):
        op, m, sort = "cong", term.p ** term.r, sort_ac(term.p)
    elif isinstance(term, Se):
        op, m, sort = "eq", 0, sort_ae(term.p)
    else:
        raise TypeError("cannot case-split %r" % (term,))

    def inside(c: int) -> Formula:
        return main_rel(op, term.arg, LinTerm.zero(), 0,
                        _ref(SpinePoint(sort_ac(term.p), c)), m)

    cuts = _ac_cuts(model, term.p)
    for idx, c in enumerate(cuts):
        conds: list[Formula] = []
        if idx + 1 < len(cuts):
            conds.append(inside(cuts[idx + 1]))
        if c > 0:
            conds.append(neg(inside(c)))
        yield SpinePoint(sort, c), conds


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
            raise _MainQuantifier(f)
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
                     for pt, conds in _classify(model, term)]
            return ground_for_var(model, asg, var, disj(cases))
    if isinstance(f, (EqDot, CongDot)):
        op, m = ("cong", f.m) if isinstance(f, CongDot) else ("eq", 0)
        cases = [main_rel(op, f.t, LinTerm.zero(), f.k,
                          _ref(SpinePoint(sort_ac(2), c)), m)
                 for c in _discrete_cuts(model)]
        return ground_for_var(model, asg, var, disj(cases))
    if isinstance(f, DPred):
        n, ns, z = f.p ** f.r, f.p ** f.s, LinTerm.zero()
        cases = []
        for pt, conds in _classify(model, Sc(f.p, f.r, f.t)):
            cases.append(conj(list(conds) + [
                main_rel("congb", f.t, z, 0, _ref(pt), n, ns),
                neg(main_rel("cong", f.t, z, 0, _ref(pt), n)),
            ]))
        return ground_for_var(model, asg, var, disj(cases))
    # MainRel / PlainRel with grounded anchor: keep for compilation
    return f


# ---------------------------------------------------------------------------
# Disjoint clauses over the remaining atoms

# leaves of one grounded matrix, and solver clauses compiled from them,
# before the decision answers unknown
LEAF_CAP = 512


def dnf_clauses(f: Formula):
    """The leaves of the grounded matrix f over its atoms, lazily.  Its own
    name because perfbench/tracing.py patches it, which `--trace 1` and
    `--determinism` runs depend on."""

    return disjoint_clauses(f, None, LEAF_CAP)


# ---------------------------------------------------------------------------
# Compiling one clause to solver records

_TRUE = object()
_FALSE = object()


def _cong_alternatives(model, cut, m, r, u, positive):
    K = model.rank
    if m == 1 or cut >= K:
        return _TRUE if positive else _FALSE
    if model.sum_mod is not None and cut == 0:
        if positive:
            return [solver.SumCong(m, r, u, False)]
        alts = [solver.NDiv(i, m, r, u) for i in range(K)
                if comp_nontrivial_quotient(model.comps[i], m)]
        alts.append(solver.SumCong(m, r, u, True))
        return alts
    if positive:
        return [solver.Div(cut, m, r, u)]
    alts = [solver.NDiv(i, m, r, u) for i in range(cut, K)
            if comp_nontrivial_quotient(model.comps[i], m)]
    return alts if alts else _FALSE


def _literal_alternatives(model, asg, var, atom: Atom, positive: bool):
    """List of alternative solver records, or _TRUE/_FALSE.  lhs - rhs is
    read by `_difference`, so a name that cancels must still be assigned;
    a literal in which var cancels is decided by the atom's own
    semantics."""

    if not isinstance(atom, (MainRel, PlainRel)):
        raise TypeError("atom %r not compilable" % (atom,))
    pairs = _difference(atom.lhs, atom.rhs)
    r = dict(pairs).get(var, 0)
    if r == 0:
        ok = eval_atom(model, {**asg, var: model.zero()}, atom)
        return _TRUE if ok == positive else _FALSE
    u = _term_fn(model, [(v, c) for v, c in pairs if v != var],
                 model.zero())(asg)
    if isinstance(atom, PlainRel):
        if atom.op == "lt":
            return [solver.Lex("lt" if positive else "ge", 0, r, u)]
        return _cong_alternatives(model, 0, atom.m, r, u, positive)
    c = resolve_aux(model, asg, atom.aux).cut
    if atom.k != 0:
        rep = model.minpos_rep(c)
        if rep is not None:
            u = model.sub(u, model.smul(atom.k, rep))
    if atom.op == "eq":
        return [solver.Lex("eq" if positive else "ne", c, r, u)]
    if atom.op == "lt":
        return [solver.Lex("lt" if positive else "ge", c, r, u)]
    if atom.op == "cong":
        return _cong_alternatives(model, c, atom.m, r, u, positive)
    # bracket congruence
    if c >= model.rank:
        return _TRUE if positive else _FALSE
    return _cong_alternatives(model, c + 1, gcd(atom.m, atom.mp), r, u,
                              positive)


def compile_clause(model, asg, var, lits) -> list[solver.Clause]:
    """The first LEAF_CAP + 1 solver clauses of one leaf, one per choice of
    an alternative for each literal: a decision stops after LEAF_CAP."""

    alt_lists = []
    for atom, pol in lits:
        alts = _literal_alternatives(model, asg, var, atom, pol)
        if alts is _TRUE:
            continue
        if alts is _FALSE:
            return []
        alt_lists.append(alts)
    out = []
    for combo in itertools.islice(itertools.product(*alt_lists),
                                  LEAF_CAP + 1):
        cl = solver.Clause(lex=[], div=[], ndiv=[], sums=[])
        for rec in combo:
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

def decide_exists_main(model, asg: Assignment, var: str,
                       body: Formula) -> Tri:
    """Exists var. body, for one assignment of the other variables.

    The grounded search is complete; each leaf of the grounded matrix is
    compiled and its solver clauses are solved as they come, and the first
    witness ends it.  The answer is None once more than LEAF_CAP leaves or
    solver clauses are taken without a witness, or the solver reaches its
    limit.  Grounding raises `_MainQuantifier` on a main-sort quantifier in
    body."""

    try:
        g = ground_for_var(model, asg, var, body)
        solved = 0
        for lits, _ in dnf_clauses(g):
            for cl in compile_clause(model, asg, var, lits):
                solved += 1
                if solved > LEAF_CAP:
                    return None
                if solver.solve_clause(model, cl) is not None:
                    return True
        return False
    except (ResourceLimit, solver.SolverLimit):
        return None


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


def _compile(model: LexModel, varied, roots, free: dict,
             memo_roots: bool = True) -> list:
    """Each formula in roots compiled into a tree of closures
    run(assignment) -> Tri; the closures are returned in order.

    Equal subformulas are compiled once, keyed by value across the roots;
    free is a `free_names` cache, and varied() gives the names that the
    caller varies.  A node keeps a memo of its results, keyed by the values
    of its free variables, only where a lookup can hit: a main-sort
    quantifier, whose decision is the expensive step, or a node whose free
    names are a strict subset of varied(), so that calls differing only
    outside them share one entry.  Free names are read only for these memo
    decisions: with memo_roots false the roots keep no memo and read none,
    so a formula whose root is a main-sort quantifier compiles without a
    walk (see `evaluator`).  The body of a main-sort quantifier is not
    compiled: `_decide` grounds it at each assignment.  The memos live as
    long as the returned closures: no closure refers back to the table of
    compiled nodes and `comp` is deleted on return, so dropping the
    closures frees the memos at once."""

    runs: dict = {}

    def comp(g: Formula, memo: bool = True):
        run = runs.get(g)
        if run is not None:
            return run
        if isinstance(g, (Top, Bottom)):
            val = isinstance(g, Top)
            runs[g] = run = lambda asg: val
            return run
        main = isinstance(g, (Exists, Forall)) and g.sort.is_main
        if isinstance(g, Atom):
            run = _atom_fn(model, g)
        elif isinstance(g, Not):
            arg = comp(g.arg)
            run = lambda asg: k_not(arg(asg))
        elif isinstance(g, (And, Or)):
            run = _fold([comp(h) for h in g.args], isinstance(g, Or))
        elif main:
            run = _decide(model, g)
        elif isinstance(g, (Exists, Forall)):
            run = _sweep(comp(g.body), g.var, spine(model, g.sort),
                         k_any if isinstance(g, Exists) else k_all)
        else:
            raise TypeError("not a formula: %r" % (g,))
        if memo:
            names = free_names(g, free)
            if main or names < varied():
                run = _memoized(run, tuple(sorted(names)))
        runs[g] = run
        return run

    try:
        return [comp(g, memo_roots) for g in roots]
    finally:
        del comp


def _decide(model: LexModel, g: Formula):
    """A main-sort quantifier: `decide_exists_main` on its body, negated
    for Forall.  The body is grounded as written until grounding meets a
    main quantifier in it; then every main quantifier of the body is
    eliminated once, innermost first, with `qe_driver`'s limits and names
    that avoid every name of g, and the result is decided from then on.
    A limit of that elimination, or `OutsideFragment`, answers None."""

    var = g.var
    # [body], with its main quantifiers eliminated once grounding met one;
    # [] when that elimination failed
    body = [g.body if isinstance(g, Exists) else Not(g.body)]

    def decide(asg: Assignment) -> Tri:
        while body:
            try:
                return decide_exists_main(model, asg, var, body[0])
            except _MainQuantifier:
                try:
                    body[0] = _push_out_main(body[0], Fresh("b", all_names(g)))
                except (ResourceLimit, OutsideFragment):
                    body.clear()
        return None

    if isinstance(g, Exists):
        return decide
    return lambda asg: k_not(decide(asg))


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


def evaluate(model: LexModel, asg: Assignment, f: Formula) -> Tri:
    """Public entry for one-shot evaluation: a throwaway evaluator."""

    return evaluator(model, f)(asg)


def evaluator(model: LexModel, f: Formula):
    """A reusable assignment -> truth value function for one formula;
    three-valued, it never returns a wrong definite answer.

    The formula is compiled once, as it is written, into a tree of closures
    (see `_compile`).  A quantifier runs its body on a copy of the
    assignment in which its own variable is set, so a name bound twice, or
    bound and also free, or given a value by the caller, is shadowed as the
    semantics say, and each memo is keyed by the values its node reads
    there.  The caller varies the free variables of f, so a node keeps a
    memo only when it is a main-sort quantifier or its free variables are a
    strict subset of those of f: for example a literal over x alone, asked
    at one x for many y.  The root keeps none, since its key would be the
    whole assignment; so the free names of f are read only when a node
    below the root makes its memo decision, and a one-shot call on a
    formula whose root is a main-sort quantifier never walks the formula
    outside its grounding.  A main-sort quantifier nested in another is
    eliminated, once per compiled node (see `_decide`), so an answer is
    None only where a limit was reached.

    The memos live as long as the returned function and grow by one entry
    per memoized node and distinct restricted assignment.  Callers that
    evaluate at many points keep one evaluator per formula for the length
    of one job (one `decompose` or `verify_decomposition` call, one
    `oagqe check` run) and drop it afterwards, which frees the memos."""

    free: dict = {}
    return _compile(model, lambda: free_names(f, free), [f], free,
                    memo_roots=False)[0]


def family_evaluator(model: LexModel, fuf):
    """Assignment -> list of per-clause truth values for a family union form.

    All clause matrices are compiled by one `_compile` call, with one
    `free_names` cache, so literals and guards shared between clauses are
    compiled once and share one memo.  The caller varies the free variables
    of the matrices and the theta parameters, which are swept over the
    spine points of their sorts directly, clause by clause; a binder inside
    a matrix shadows them as in `evaluator`.  A node is memoized when it is
    a main-sort quantifier or its free variables are a strict subset of
    these, such as a guard literal over theta alone.  The memos live as
    long as the returned function."""

    matrices = [cl.matrix() for cl in fuf.clauses]
    free: dict = {}
    varied = set()
    for m in matrices:
        varied.update(free_names(m, free))
    sweeps = []
    for cl in fuf.clauses:
        varied.update(name for name, _ in cl.theta)
        sweeps.append((tuple(name for name, _ in cl.theta),
                       [spine(model, s) for _, s in cl.theta]))
    varied = frozenset(varied)
    runs = _compile(model, lambda: varied, matrices, free)

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
