"""Family union form and disjoint disjunctive normal form.

A formula without main-sort quantifiers is rewritten as a finite disjunction
of clauses  E theta. (xi and psi)  where xi lives purely in the auxiliary
sorts, psi is a conjunction of literals over the main variables and theta,
and any two instantiated clauses are mutually inconsistent.  The theta
parameters stand for the canonical-map images of main-sort terms; equating
them with those images inside every psi is what makes distinct instantiations
clash.  As in the paper, xi may quantify over the auxiliary sorts: only the
main-sort part of a clause is split into literals.  This module holds the
form (`FamilyUnionForm`) and the passes its one builder,
`translate.syn_qf_to_qe_fuf`, runs.

Every case split over the boolean skeleton goes through one Shannon
splitter (`ShannonSplitter`), and one generator, `disjoint_clauses`, turns
its decision tree into clauses for the disjoint normal form and the
evaluator's existential decision.  Any decision tree over the units gives
clauses that pairwise contradict each other, which is all a family union
form needs.  The splitter sees through an auxiliary quantifier that is not
one of its units, so the main atoms under it are split where they sit
(`hoist_main_units` lists them), and a branch may stop before every unit
is decided.  The splitter caches, per connective, the units it mentions
and its cofactors, keyed by value (every node caches its hash), so a
remainder reached along several branches is split once.  Its caches live
for one call of the function that built it.

Canonical-map extraction is `syntax.rebuild` with a rule for atoms; no
memo here is keyed by node identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    FALSE, TRUE, Atom, AuxTerm, AuxVar, Bottom, Exists, Forall, Formula,
    Fresh, Not, And, Or, Sc, Se, Sort, Top, atom_aux_terms, atoms_of,
    aux_term_sort, conj, disj, free_names, free_occurrences, lin_terms,
    neg, rebuild, replace_aux_terms,
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

    Only the listed units are split on.  An auxiliary-sort quantifier that
    is not listed is a connective for the listed units in which its
    variable does not occur free: its cofactor is the same quantifier over
    the cofactored body, and it folds to the body's constant when the body
    folds, since an auxiliary sort is never empty.  A unit that mentions
    the variable means something else under the quantifier, so the
    quantifier hides it.  Any other unlisted unit, a main-sort quantifier
    among them, is an opaque leaf.  For every conjunction, disjunction and
    such quantifier it meets, the splitter caches the set of listed units
    the subformula mentions (a bit mask of their indices), its cofactor for
    each (unit, polarity) pair and its split; a leaf needs only a lookup of
    its index and a negation passes to its argument, so neither is cached.
    The caches are keyed by value, never by identity, and live as long as
    the splitter, which its callers build once per call.  A subtree that
    does not mention the split unit is its own cofactor; the others are
    rebuilt with the smart constructors, which fold the constants.  So a
    formula it splits must itself be built with the smart constructors, as
    `parse_formula` and `rebuild` build theirs: a raw constant such as
    Not(TRUE) in a subtree without units would never fold.

    decide, a subset of the units (all of them when None), is what a branch
    must settle: `split` finds nothing to split once none of it is live.
    """

    def __init__(self, units, decide=None):
        self._index = {u: i for i, u in enumerate(units)}
        # -1 has every bit set
        self._decide = -1 if decide is None else sum(
            1 << self._index[u] for u in set(decide))
        # per connective: [mask, split, {(i, pol): cofactor}]
        self._node: dict = {}
        # per variable: the mask of the units it occurs free in, built at
        # the first quantifier
        self._free = None

    def _record(self, g: Formula) -> list:
        rec = self._node.get(g)
        if rec is None:
            m = 0
            if isinstance(g, (And, Or)):
                for h in g.args:
                    m |= self.mask(h)
            else:
                m = self.mask(g.body) & ~self._mentioning(g.var)
            rec = self._node[g] = [m, None, {}]
        return rec

    def _mentioning(self, var: str) -> int:
        if self._free is None:
            self._free = {}
            cache: dict = {}
            for u, i in self._index.items():
                for v in free_names(u, cache):
                    self._free[v] = self._free.get(v, 0) | 1 << i
        return self._free.get(var, 0)

    def mask(self, g: Formula) -> int:
        """Bit i is set when the listed unit i occurs in g."""

        if isinstance(g, Not):
            return self.mask(g.arg)
        if isinstance(g, (And, Or)):
            return self._record(g)[0]
        i = self._index.get(g)
        if i is not None:
            return 1 << i
        if isinstance(g, (Exists, Forall)) and not g.sort.is_main:
            return self._record(g)[0]
        return 0

    def split(self, g: Formula) -> tuple:
        """(i, g with unit i true, g with unit i false) for the live listed
        unit i of g with the lowest index; () when no unit of decide is
        live."""

        if isinstance(g, Not):
            node = self.split(g.arg)
            return (node[0], neg(node[1]), neg(node[2])) if node else ()
        if not isinstance(g, (And, Or)):
            i = self._index.get(g)
            if i is not None:
                return (i, TRUE, FALSE) if self._decide >> i & 1 else ()
            if not isinstance(g, (Exists, Forall)) or g.sort.is_main:
                return ()
        rec = self._record(g)
        if rec[1] is None:
            m = rec[0]
            i = (m & -m).bit_length() - 1
            rec[1] = ((i, self.cofactor(g, i, True),
                       self.cofactor(g, i, False))
                      if m & self._decide else ())
        return rec[1]

    def cofactor(self, g: Formula, i: int, pol: bool) -> Formula:
        """g with the listed unit i set to the truth value pol."""

        if isinstance(g, Not):
            h = self.cofactor(g.arg, i, pol)
            return g if h is g.arg else neg(h)
        if not isinstance(g, (And, Or)):
            j = self._index.get(g)
            if (j is not None or not isinstance(g, (Exists, Forall))
                    or g.sort.is_main):
                return (TRUE if pol else FALSE) if j == i else g
        m, _, cof = self._record(g)
        if not m >> i & 1:
            return g
        out = cof.get((i, pol))
        if out is None:
            if isinstance(g, And):
                out = conj(self.cofactor(h, i, pol) for h in g.args)
            elif isinstance(g, Or):
                out = disj(self.cofactor(h, i, pol) for h in g.args)
            else:
                body = self.cofactor(g.body, i, pol)
                out = (body if isinstance(body, (Top, Bottom))
                       else type(g)(g.var, g.sort, body))
            cof[i, pol] = out
        return out


def atom_involves_main(a: Atom) -> bool:
    """Whether the atom mentions the main sort at all: a main-sort relation,
    or an auxiliary atom over a canonical-map image of a main term."""

    return bool(lin_terms(a))


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


def disjoint_clauses(f: Formula, units, cap: int, decide=None):
    """The leaves (literals, remainder) of the decision tree of f over the
    listed units, lazily.

    Each remainder splits on its live listed unit of lowest index, and a
    leaf is reached once no unit of decide (every listed unit when None) is
    live: its literals are the units on its branch and its remainder is
    what the other units leave (`TRUE` when every unit is listed and
    decided).  Two leaves disagree on the unit where their branches split.
    The walk is depth first, true branch first; false leaves are dropped,
    and `ResourceLimit` is raised once more than cap leaves have been
    emitted.  f must be built with the smart constructors (see
    `ShannonSplitter`).
    """

    sp = ShannonSplitter(units, decide)
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


def dnf_disjoint_tree(f: Formula, cap: int = 4096, units=None,
                      decide=None):
    """Pairwise-disjoint disjunctive normal form: the literal lists of the
    leaves of `disjoint_clauses` over units (every boolean unit of f by
    default), in order.  A leaf whose remainder is not `TRUE`, which only
    units or a decide set narrower than the default leave, ends with the
    literal (remainder, True)."""

    if units is None:
        units = boolean_units(f)
    return [lits if isinstance(rest, Top) else lits + [(rest, True)]
            for lits, rest in disjoint_clauses(f, units, cap, decide)]


def hoist_main_units(f: Formula) -> list[Formula]:
    """The units of the final case split of f, in first-occurrence order:
    every unit that mentions the main sort wherever it sits, lifted out of
    the auxiliary quantifier blocks that hold one, and every other maximal
    unit outside such blocks.

    The splitter sees through those blocks (see `ShannonSplitter`), except
    for a unit that mentions the block's variable, which it cannot lift
    out: so a main-sort unit that mentions a variable of a block around
    it raises ValueError.  Blocks that hold no main-sort unit stay units
    themselves.  A subformula is walked once per set of enclosing block
    variables, and the memos are keyed by value and live for this call.
    """

    out: dict = {}
    involves: dict = {}
    free: dict = {}
    visited: set = set()
    # depth first, children pushed in reverse so that they pop in order;
    # bound holds the variables of the enclosing blocks
    stack = [(f, frozenset())]
    while stack:
        item = stack.pop()
        if item in visited:
            continue
        visited.add(item)
        g, bound = item
        if isinstance(g, Not):
            stack.append((g.arg, bound))
        elif isinstance(g, (And, Or)):
            stack.extend((h, bound) for h in reversed(g.args))
        elif isinstance(g, (Top, Bottom)):
            continue
        elif not unit_involves_main(g, involves):
            if not bound:
                out[g] = None
        elif isinstance(g, (Exists, Forall)) and not g.sort.is_main:
            stack.append((g.body, bound | {g.var}))
        else:
            if not bound.isdisjoint(free_names(g, free)):
                raise ValueError(
                    "main-sort atom depends on an auxiliary bound variable; "
                    "outside the supported fragment")
            out[g] = None
    return list(out)


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
        quantified: dict = {}
        involves: dict = {}
        free: dict = {}
        for i, cl in enumerate(self.clauses):
            names = [n for n, _ in cl.theta]
            if len(set(names)) != len(names):
                problems.append("clause %d: duplicate parameter names" % i)
            for s in (s for _, s in cl.theta):
                if not isinstance(s, Sort) or s.is_main:
                    problems.append("clause %d: non-aux parameter sort" % i)
            if _main_quantified(cl.xi, quantified):
                problems.append("clause %d: main quantifier in guard" % i)
            if unit_involves_main(cl.xi, involves):
                problems.append(
                    "clause %d: guard atom touches the main sort" % i)
            for v, (s, in_main) in free_occurrences(cl.xi, free).items():
                if in_main or (s is not None and s.is_main):
                    problems.append(
                        "clause %d: main variable %s in guard" % (i, v))
            for a, pol in cl.psi:
                if not isinstance(a, Atom):
                    problems.append("clause %d: non-atomic literal" % i)
        return problems


def _main_quantified(g: Formula, cache: dict) -> bool:
    """Whether g has a main-sort quantifier, memoized by value in a cache
    that lives for one call."""

    hit = cache.get(g)
    if hit is None:
        if isinstance(g, Not):
            hit = _main_quantified(g.arg, cache)
        elif isinstance(g, (And, Or)):
            hit = any(_main_quantified(h, cache) for h in g.args)
        elif isinstance(g, (Exists, Forall)):
            hit = g.sort.is_main or _main_quantified(g.body, cache)
        else:
            hit = False
        cache[g] = hit
    return hit


def _can_subterms(t: AuxTerm, out: list):
    if isinstance(t, (Sc, Se)) and t not in out:
        out.append(t)
    for u in atom_aux_terms(t):
        _can_subterms(u, out)


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
        name = fresh("th")
        sort = aux_term_sort(t)
        mapping[t] = AuxVar(name, sort)
        extracted.append((name, sort, t))
    g = rebuild(f, lambda a: replace_aux_terms(a, mapping)) if mapping else f
    return g, extracted
