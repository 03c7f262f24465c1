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
is decided.  The splitter works on a table of integer nodes that
`disjoint_clauses` builds for one call: a formula's node is found by value
and a connective is interned by its children's ids, so a remainder reached
along several branches is one node, split once.  The table folds what the
smart constructors of syntax.py fold, and formulas are built again only
for the remainders that the leaves emit.

Canonical-map extraction is `syntax.rebuild` with a rule for atoms; no
memo here is keyed by node identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    FALSE, TRUE, Atom, AuxTerm, AuxVar, Bottom, Exists, Forall, Formula,
    Fresh, Not, And, Or, Sc, Se, Sort, Top, atom_aux_terms, atoms_of,
    aux_term_sort, conj, disj, free_names, free_occurrences, lin_terms,
    neg, quant, rebuild, replace_aux_terms,
)


class ResourceLimit(Exception):
    """Raised when a rewriting step exceeds its configured size budget."""


# ---------------------------------------------------------------------------
# Boolean skeleton

class ShannonSplitter:
    """A table of integer nodes for the boolean skeleton of f over one
    ordered list of units, with its cofactors and splits.

    Node 0 is TRUE and node 1 is FALSE.  A node records its kind (None for
    a unit, else the class of its connective), its children's ids (and a
    quantifier's variable and sort) and the mask of the listed units it
    mentions.  A formula's node is found by value and a connective is
    interned by its children's ids, so equal subformulas share one node,
    one split and one cofactor per (unit, polarity).  The table lives for
    one call of the function that builds it.  Cofactors fold on ids what
    `conj`, `disj`, `neg` and `quant` fold, and `formula` builds a node's
    formula with them only when asked; so f must be built with the smart
    constructors, as `parse_formula` and `rebuild` build theirs: a raw
    constant such as Not(TRUE) in a subtree without units never folds.

    Only the listed units are split on; with units None every unit of f is
    listed, in first-occurrence order.  An auxiliary-sort quantifier that
    is not listed is a connective for the listed units in which its
    variable does not occur free: its cofactor is the same quantifier over
    the cofactored body, and one equal to a listed unit is that unit.  A
    unit that mentions the variable means something else under the
    quantifier, so the quantifier hides it.  Any other unlisted unit, a
    main-sort quantifier among them, is an opaque leaf.

    decide, a subset of the units (all of them when None), is what a branch
    must settle: `split` finds nothing to split once none of it is live.
    """

    def __init__(self, f: Formula, units=None, decide=None):
        self.units = [] if units is None else units
        self._kind: list = [Top, Bottom]
        self._args: list = [(), ()]
        self._mask = [0, 0]
        self._form: list = [TRUE, FALSE]
        self._of: dict = {}    # formula -> node, by value
        self._ids: dict = {}   # (kind, args) -> node, args being the
        # child ids, or (body, var, sort) for a quantifier
        self._cof: dict = {}   # n * 2U + 2i + pol -> cofactor node
        self._split: dict = {}
        # per variable: the mask of the units it occurs free in, built at
        # the first unlisted quantifier
        self._free = None
        for i, u in enumerate(self.units):
            self._of[u] = self._new(None, (), 1 << i, u)
        self._listing = units is None
        self.root = self.node(f)
        self._listing = False
        self._width = 2 * len(self.units)
        # -1 has every bit set
        self._decide = -1 if decide is None else sum(
            self._mask[self._of[u]] for u in set(decide))

    def _new(self, kind, args: tuple, mask: int, form) -> int:
        self._kind.append(kind)
        self._args.append(args)
        self._mask.append(mask)
        self._form.append(form)
        return len(self._mask) - 1

    def _intern(self, kind, args: tuple) -> int:
        key = (kind, args)
        n = self._ids.get(key)
        if n is None:
            mask = self._mask
            if kind is Exists or kind is Forall:
                m = mask[args[0]] & ~self._mentioning(args[1])
            else:
                m = 0
                for a in args:
                    m |= mask[a]
            n = self._ids[key] = self._new(kind, args, m, None)
        return n

    def _mentioning(self, var: str) -> int:
        if self._free is None:
            self._free = {}
            cache: dict = {}
            for i, u in enumerate(self.units):
                for v in free_names(u, cache):
                    self._free[v] = self._free.get(v, 0) | 1 << i
            # a cofactor equal to a listed block must be that unit
            for u in self.units:
                if isinstance(u, (Exists, Forall)) and not u.sort.is_main:
                    key = (type(u), (self.node(u.body), u.var, u.sort))
                    self._ids[key] = self._of[u]
        return self._free.get(var, 0)

    def node(self, g: Formula) -> int:
        """The node of g, which `formula` gives back as g itself."""

        n = self._of.get(g)
        if n is None:
            if isinstance(g, Not):
                n = self._intern(Not, (self.node(g.arg),))
            elif isinstance(g, (And, Or)):
                n = self._intern(type(g), tuple([self.node(h)
                                                 for h in g.args]))
            elif isinstance(g, (Top, Bottom)):
                return 0 if isinstance(g, Top) else 1
            elif self._listing:
                n = self._new(None, (), 1 << len(self.units), g)
                self.units.append(g)
            elif isinstance(g, (Exists, Forall)) and not g.sort.is_main:
                n = self._intern(type(g), (self.node(g.body), g.var, g.sort))
            else:
                n = self._new(None, (), 0, g)
            self._of[g] = n
        self._form[n] = g
        return n

    def formula(self, n: int) -> Formula:
        """The formula of node n, built on first use."""

        g = self._form[n]
        if g is None:
            kind, args = self._kind[n], self._args[n]
            if kind is And or kind is Or:
                g = (conj if kind is And else disj)(
                    [self.formula(a) for a in args])
            elif kind is Not:
                g = neg(self.formula(args[0]))
            else:
                g = quant(kind, args[1], args[2], self.formula(args[0]))
            self._form[n] = g
        return g

    def split(self, n: int) -> tuple:
        """(i, n with unit i true, n with unit i false) for the live listed
        unit i of n with the lowest index; () when no unit of decide is
        live."""

        out = self._split.get(n)
        if out is None:
            m = self._mask[n]
            out = ()
            if m & self._decide:
                i = (m & -m).bit_length() - 1
                out = (i, self.cofactor(n, i, True),
                       self.cofactor(n, i, False))
            self._split[n] = out
        return out

    def cofactor(self, n: int, i: int, pol: bool) -> int:
        """Node n with the listed unit i set to the truth value pol."""

        mask, kinds = self._mask, self._kind
        if not mask[n] >> i & 1:
            return n
        kind, args = kinds[n], self._args[n]
        if kind is None:
            return 0 if pol else 1
        if kind is Not:
            out = self.cofactor(args[0], i, pol)
            if out < 2:
                return 1 - out
            if kinds[out] is Not:
                return self._args[out][0]
            return self._intern(Not, (out,))
        key = n * self._width + 2 * i + pol
        out = self._cof.get(key)
        if out is None:
            if kind is And or kind is Or:
                # conj or disj of the cofactored arguments
                out = stop = 1 if kind is And else 0
                parts: list = []
                for a in args:
                    if mask[a] >> i & 1:
                        a = self.cofactor(a, i, pol)
                    if a == stop:
                        break
                    if a > 1:
                        if kinds[a] is kind:
                            parts.extend(self._args[a])
                        else:
                            parts.append(a)
                else:
                    out = (self._intern(kind, tuple(parts)) if len(parts) > 1
                           else parts[0] if parts else 1 - stop)
            else:
                out = self.cofactor(args[0], i, pol)
                if out > 1:
                    out = self._intern(kind, (out,) + args[1:])
            self._cof[key] = out
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
    listed units (every boolean unit of f, in first-occurrence order, when
    None), lazily.

    Each remainder splits on its live listed unit of lowest index, and a
    leaf is reached once no unit of decide (every listed unit when None) is
    live: its literals are the units on its branch and its remainder is
    what the other units leave (`TRUE` when every unit is listed and
    decided).  Two leaves disagree on the unit where their branches split.
    The walk is depth first, true branch first; false leaves are dropped,
    and `ResourceLimit` is raised once more than cap leaves have been
    emitted.  The walk runs on the node ids of one `ShannonSplitter`, and
    only an emitted remainder is rebuilt as a formula.  f must be built
    with the smart constructors.
    """

    sp = ShannonSplitter(f, units, decide)
    units = sp.units
    emitted = 0
    # explicit stack: the unit list can be long and recursion depth tracks it
    stack = [(sp.root, [])]
    while stack:
        n, lits = stack.pop()
        node = sp.split(n)
        if node:
            i, hi, lo = node
            u = units[i]
            if lo != 1:
                stack.append((lo, lits + [(u, False)]))
            if hi != 1:
                stack.append((hi, lits + [(u, True)]))
        elif n != 1:
            emitted += 1
            if emitted > cap:
                raise ResourceLimit("disjoint clause cap exceeded")
            yield lits, sp.formula(n)


def dnf_disjoint_tree(f: Formula, cap: int = 4096, units=None,
                      decide=None):
    """Pairwise-disjoint disjunctive normal form: the literal lists of the
    leaves of `disjoint_clauses` over units (every boolean unit of f by
    default), in order.  A leaf whose remainder is not `TRUE`, which only
    units or a decide set narrower than the default leave, ends with the
    literal (remainder, True)."""

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
            out = quant(Exists, name, sort, out)
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
