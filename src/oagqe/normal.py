"""Family union form and disjoint disjunctive normal form.

A formula without main-sort quantifiers is rewritten as a finite disjunction
of clauses  E theta. (xi and psi)  where xi lives purely in the auxiliary
sorts, psi is a conjunction of literals over the main variables and theta,
and any two instantiated clauses are mutually inconsistent.  The theta
parameters stand for the canonical-map images of main-sort terms; equating
them with those images inside every psi is what makes distinct instantiations
clash.

Every case split over the boolean skeleton goes through one Shannon
splitter (`ShannonSplitter`), and one generator, `disjoint_clauses`, turns
its decision tree into clauses for the disjoint normal form,
`to_family_union` and the evaluator's existential decision.  Any decision
tree over the units gives clauses that pairwise contradict each other,
which is all a family union form needs.  `hoist_main_units` keeps its own
walk over the splitter, since it builds a shared if-then-else.  The
splitter caches, per conjunction and disjunction, the units it mentions and
its cofactors, keyed by value (every node caches its hash), so a remainder
reached along several branches is split once.  Its caches live for one call
of the function that built it.

The other rewrites (canonical-map extraction, hoisting, inlining of pinned
parameters) are `syntax.rebuild` with a rule for atoms and one for
quantifiers; no memo here is keyed by node identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    FALSE, TRUE, Atom, AuxLe, AuxTerm, AuxVar, Bottom, Exists, Forall,
    Formula, Fresh, Not, And, Or, Sc, Se, Sort, SuccPlus, Top,
    atom_aux_terms, atom_lin_terms, atoms_of, aux_free_vars, aux_term_sort,
    conj, disj, free_names, free_vars, has_main_quantifier, main_vars, neg,
    rebuild, replace_aux_terms, subformulas, substitute,
)


class ResourceLimit(Exception):
    """Raised when a rewriting step exceeds its configured size budget."""


# ---------------------------------------------------------------------------
# Boolean skeleton

def boolean_units(f: Formula) -> list[Formula]:
    """Maximal non-boolean subformulas (atoms and quantified blocks), in
    first-occurrence order."""

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


class ShannonSplitter:
    """Cofactors of boolean skeletons over one ordered list of units.

    Only the listed units are split on; any other unit is an opaque leaf.
    For every conjunction and disjunction it meets, the splitter caches the
    set of listed units the subformula mentions (a bit mask of their
    indices), its cofactor for each (unit, polarity) pair and its split; a
    leaf needs only a lookup of its index and a negation passes to its
    argument, so neither is cached.  The caches are keyed by value, never
    by identity, and live as long as the splitter, which its callers build
    once per call.  A subtree that does not mention
    the split unit is its own cofactor; the others are rebuilt with the
    smart constructors, which fold the constants.  So a formula it splits
    must itself be built with the smart constructors, as `parse_formula`
    and `rebuild` build theirs: a raw constant such as Not(TRUE) in a
    subtree without units would never fold.
    """

    def __init__(self, units):
        self._index = {u: i for i, u in enumerate(units)}
        # per conjunction or disjunction: [mask, split, {(i, pol): cofactor}]
        self._node: dict = {}

    def _record(self, g: Formula) -> list:
        rec = self._node.get(g)
        if rec is None:
            m = 0
            for h in g.args:
                m |= self.mask(h)
            rec = self._node[g] = [m, None, {}]
        return rec

    def mask(self, g: Formula) -> int:
        """Bit i is set when the listed unit i occurs in g."""

        if isinstance(g, Not):
            return self.mask(g.arg)
        if isinstance(g, (And, Or)):
            return self._record(g)[0]
        i = self._index.get(g)
        return 0 if i is None else 1 << i

    def split(self, g: Formula) -> tuple:
        """(i, g with unit i true, g with unit i false) for the live listed
        unit i of g with the lowest index; () when none is live."""

        if isinstance(g, Not):
            node = self.split(g.arg)
            return (node[0], neg(node[1]), neg(node[2])) if node else ()
        if not isinstance(g, (And, Or)):
            i = self._index.get(g)
            return () if i is None else (i, TRUE, FALSE)
        rec = self._record(g)
        if rec[1] is None:
            m = rec[0]
            i = (m & -m).bit_length() - 1
            rec[1] = ((i, self.cofactor(g, i, True),
                       self.cofactor(g, i, False)) if i >= 0 else ())
        return rec[1]

    def cofactor(self, g: Formula, i: int, pol: bool) -> Formula:
        """g with the listed unit i set to the truth value pol."""

        if isinstance(g, Not):
            h = self.cofactor(g.arg, i, pol)
            return g if h is g.arg else neg(h)
        if not isinstance(g, (And, Or)):
            return (TRUE if pol else FALSE) if self._index.get(g) == i else g
        m, _, cof = self._record(g)
        if not m >> i & 1:
            return g
        out = cof.get((i, pol))
        if out is None:
            parts = (self.cofactor(h, i, pol) for h in g.args)
            out = conj(parts) if isinstance(g, And) else disj(parts)
            cof[i, pol] = out
        return out


def atom_involves_main(a: Atom) -> bool:
    """Whether the atom mentions the main sort at all: a main-sort relation,
    or an auxiliary atom over a canonical-map image of a main term."""

    return bool(atom_lin_terms(a))


def unit_involves_main(u: Formula, memo: dict) -> bool:
    """Whether a boolean unit mentions the main sort anywhere.  The walk
    recurses through memo, which caches the answer per subformula, keyed by
    value, for the caller's one call, so that a subformula shared between
    units or blocks is walked once."""

    hit = memo.get(u)
    if hit is None:
        if isinstance(u, Atom):
            hit = atom_involves_main(u)
        elif isinstance(u, Not):
            hit = unit_involves_main(u.arg, memo)
        elif isinstance(u, (And, Or)):
            hit = any(unit_involves_main(g, memo) for g in u.args)
        elif isinstance(u, (Exists, Forall)):
            hit = unit_involves_main(u.body, memo)
        else:
            hit = False
        memo[u] = hit
    return hit


def disjoint_clauses(f: Formula, units, cap: int):
    """The leaves (literals, remainder) of the decision tree of f over the
    listed units, lazily.

    Each remainder splits on its live listed unit of lowest index, and a
    leaf is reached once none is live: its literals are the units on its
    branch and its remainder is what the unlisted units leave (`TRUE` when
    every unit is listed).  Two leaves disagree on the unit where their
    branches split.  The walk is depth first, true branch first; false
    leaves are dropped, and `ResourceLimit` is raised once more than cap
    leaves have been emitted.  f must be built with the smart constructors
    (see `ShannonSplitter`).
    """

    sp = ShannonSplitter(units)
    emitted = 0
    # explicit stack: the unit list can be long and recursion depth tracks it
    stack = [(f, [])]
    while stack:
        g, lits = stack.pop()
        node = sp.split(g)
        if node:
            i, hi, lo = node
            u = units[i]
            if not isinstance(lo, Bottom):
                stack.append((lo, lits + [(u, False)]))
            if not isinstance(hi, Bottom):
                stack.append((hi, lits + [(u, True)]))
        elif not isinstance(g, Bottom):
            emitted += 1
            if emitted > cap:
                raise ResourceLimit("disjoint clause cap exceeded")
            yield lits, g


def dnf_disjoint_tree(f: Formula, cap: int = 4096):
    """Pairwise-disjoint disjunctive normal form: the literal lists of the
    leaves of `disjoint_clauses` over every boolean unit of f, in order."""

    clauses = []
    for lits, rest in disjoint_clauses(f, boolean_units(f), cap):
        if not isinstance(rest, Top):
            raise AssertionError("skeleton did not fully evaluate")
        clauses.append(lits)
    return clauses


def hoist_main_units(f: Formula, cap: int = 10) -> Formula:
    """Shannon-expand main-sort atoms out of auxiliary quantifier blocks.

    After canonical-map extraction, a main-sort atom sitting under an
    auxiliary quantifier cannot mention the bound variable, so the block
    equals a case split over the truth values of those atoms, each case
    keeping a purely auxiliary block.  Auxiliary sorts are never empty, so
    a block whose body collapses to a constant is that constant.

    The case split is a shared if-then-else over the live main atoms,
    (u and H(body|u)) or (not u and H(body|not u)), memoized on the
    remainder, so the quantifier is put back once per distinct leaf rather
    than once per row of a truth table.  The memos are keyed by value and
    live for this call.
    """

    involves: dict = {}
    free: dict = {}
    return rebuild(f, lambda a: a,
                   lambda q, body: _hoist_block(q, body, cap, involves, free))


def _hoist_block(q: Formula, body: Formula, cap: int,
                 involves: dict, free: dict) -> Formula:
    if q.sort.is_main:
        return type(q)(q.var, q.sort, body)
    units = [u for u in boolean_units(body)
             if unit_involves_main(u, involves)]
    if not units:
        return type(q)(q.var, q.sort, body)
    for u in units:
        if q.var in free_names(u, free):
            raise ValueError(
                "main-sort atom depends on an auxiliary bound variable; "
                "outside the supported fragment")
    if len(units) > cap:
        raise ResourceLimit("%d main-sort atoms under one auxiliary "
                            "quantifier" % len(units))
    sp = ShannonSplitter(units)
    memo: dict = {}

    def expand(g: Formula) -> Formula:
        hit = memo.get(g)
        if hit is not None:
            return hit
        node = sp.split(g)
        if node:
            i, hi, lo = node
            u = units[i]
            out = disj([conj([u, expand(hi)]), conj([neg(u), expand(lo)])])
        elif isinstance(g, (Top, Bottom)):
            out = g
        else:
            out = type(q)(q.var, q.sort, g)
        memo[g] = out
        return out

    return expand(body)


# ---------------------------------------------------------------------------
# Family union form

@dataclass(frozen=True)
class FUClause:
    theta: tuple  # ((name, Sort), ...)
    xi: Formula
    psi: tuple  # ((Atom, bool), ...)

    def matrix(self) -> Formula:
        return conj([self.xi] + [a if pol else Not(a) for a, pol in self.psi])

    def to_formula(self) -> Formula:
        out = self.matrix()
        for name, sort in reversed(self.theta):
            out = Exists(name, sort, out)
        return out


@dataclass(frozen=True)
class FamilyUnionForm:
    clauses: tuple  # (FUClause, ...)

    def to_formula(self) -> Formula:
        return disj(cl.to_formula() for cl in self.clauses)

    def well_formed(self) -> list[str]:
        """Structural problems, empty when the form is valid.  Guard
        subformulas shared between clauses are examined once."""

        problems = []
        facts: dict = {}
        for i, cl in enumerate(self.clauses):
            names = [n for n, _ in cl.theta]
            if len(set(names)) != len(names):
                problems.append("clause %d: duplicate parameter names" % i)
            for s in (s for _, s in cl.theta):
                if not isinstance(s, Sort) or s.is_main:
                    problems.append("clause %d: non-aux parameter sort" % i)
            main_q, touches, fv = _guard_facts(cl.xi, facts)
            if main_q:
                problems.append("clause %d: main quantifier in guard" % i)
            if touches:
                problems.append(
                    "clause %d: guard atom touches the main sort" % i)
            for v, (s, in_main_term) in fv.items():
                if in_main_term or (s is not None and s.is_main):
                    problems.append(
                        "clause %d: main variable %s in guard" % (i, v))
            for a, pol in cl.psi:
                if not isinstance(a, Atom):
                    problems.append("clause %d: non-atomic literal" % i)
        return problems


def _guard_facts(g: Formula, cache: dict):
    """(g has a main-sort quantifier, some atom of g touches the main sort,
    free variables of g) for `FamilyUnionForm.well_formed`, memoized by value
    in a cache that lives for one call.  The free variables map each name,
    in order of first occurrence, to its sort in the first atom where it
    occurs and whether it occurs in a main-sort term anywhere; `free_vars`
    gives it the main sort in the second case and that sort otherwise."""

    hit = cache.get(g)
    if hit is not None:
        return hit
    if isinstance(g, Atom):
        lin = main_vars(g)
        fv = {v: (s, v in lin) for v, s in free_vars(g).items()}
        out = (False, atom_involves_main(g), fv)
    elif isinstance(g, (Top, Bottom)):
        out = (False, False, {})
    elif isinstance(g, Not):
        out = _guard_facts(g.arg, cache)
    elif isinstance(g, (And, Or)):
        parts = [_guard_facts(h, cache) for h in g.args]
        fv = {}
        for _, _, part in parts:
            for v, (s, in_main) in part.items():
                if v in fv:
                    s0, in_main0 = fv[v]
                    fv[v] = (s0, in_main0 or in_main)
                else:
                    fv[v] = (s, in_main)
        out = (any(p[0] for p in parts), any(p[1] for p in parts), fv)
    elif isinstance(g, (Exists, Forall)):
        main_q, touches, body_fv = _guard_facts(g.body, cache)
        fv = {v: x for v, x in body_fv.items() if v != g.var}
        out = (main_q or g.sort.is_main, touches, fv)
    else:
        raise TypeError("not a formula: %r" % (g,))
    cache[g] = out
    return out


def inline_defined_params(f: Formula) -> Formula:
    """Remove auxiliary existentials whose variable is pinned to a term.

    An  E v. (v <= t and t <= v and rest)  block, with v not occurring in t,
    is equivalent to rest with t for v.  Family union forms produced here
    always pin their parameters this way, so this pass makes their negations
    acceptable input again.
    """

    return rebuild(f, lambda a: a, _inline_block)


def _inline_block(f: Formula, body: Formula) -> Formula:
    if isinstance(f, Forall) or f.sort.is_main:
        return type(f)(f.var, f.sort, body)
    parts = list(body.args) if isinstance(body, And) else [body]

    def is_var(t):
        return isinstance(t, AuxVar) and t.name == f.var

    pin = None
    for a in parts:
        if (isinstance(a, AuxLe) and is_var(a.lhs)
                and f.var not in aux_free_vars(a.rhs)
                and any(isinstance(b, AuxLe) and is_var(b.rhs)
                        and b.lhs == a.rhs for b in parts)):
            pin = a.rhs
            break
    if pin is None:
        return Exists(f.var, f.sort, body)
    rest = [a for a in parts
            if not (isinstance(a, AuxLe)
                    and ((is_var(a.lhs) and a.rhs == pin)
                         or (is_var(a.rhs) and a.lhs == pin)))]
    return substitute(conj(rest), {f.var: pin})


def _can_subterms(t: AuxTerm, out: list):
    if isinstance(t, (Sc, Se)):
        if t not in out:
            out.append(t)
    elif isinstance(t, SuccPlus):
        _can_subterms(t.arg, out)


def all_names(f: Formula):
    names = set(free_vars(f))
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            names.add(g.var)
    return names


def extract_can_terms(f: Formula, fresh: Fresh):
    """Replace every canonical-map image of a main term by a fresh variable.

    Returns (rewritten formula, [(name, sort, original term), ...]).
    """

    can_terms: list[AuxTerm] = []
    for a in atoms_of(f):
        for t in atom_aux_terms(a):
            _can_subterms(t, can_terms)
    mapping = {}
    extracted = []
    for t in can_terms:
        name = fresh()
        sort = aux_term_sort(t)
        mapping[t] = AuxVar(name, sort)
        extracted.append((name, sort, t))
    g = rebuild(f, lambda a: replace_aux_terms(a, mapping)) if mapping else f
    return g, extracted


def to_family_union(f: Formula, cap_atoms: int = 14) -> FamilyUnionForm:
    """Rewrite a formula without main-sort quantifiers into family union
    form.

    Canonical-map images of main terms are pulled out into fresh parameters
    theta; every clause carries the defining equations, which is what keeps
    distinct parameter instantiations inconsistent.  The clauses are the
    leaves of `disjoint_clauses` over the main-sort atoms: a clause lists
    the main atoms on its branch, which ends once none is live, and its
    guard is the remainder there.
    """

    if has_main_quantifier(f):
        raise ValueError("input contains a main-sort quantifier")
    f = inline_defined_params(f)

    # extract canonical-map images into parameters
    fresh = Fresh("th", all_names(f))
    g, extracted = extract_can_terms(f, fresh)
    g = hoist_main_units(g)
    theta = []
    defs = []
    for name, sort, t in extracted:
        var = AuxVar(name, sort)
        theta.append((name, sort))
        defs.append((AuxLe(var, t), True))
        defs.append((AuxLe(t, var), True))

    involves: dict = {}
    main_units = [u for u in boolean_units(g)
                  if unit_involves_main(u, involves)]
    if not all(isinstance(u, Atom) for u in main_units):
        raise ValueError(
            "main-sort atom under an auxiliary quantifier is outside "
            "the supported fragment")

    if len(main_units) > cap_atoms:
        raise ResourceLimit(
            "%d main-sort atoms in one matrix" % len(main_units))

    # at most 2^cap_atoms leaves, so the leaf cap never binds
    theta, defs = tuple(theta), tuple(defs)
    return FamilyUnionForm(tuple(
        FUClause(theta, xi, tuple(lits) + defs)
        for lits, xi in disjoint_clauses(g, main_units, 1 << cap_atoms)))
