"""Syntax trees for formulas over ordered abelian groups.

The main sort G carries linear terms over integer coefficients.  The three
auxiliary sort families parametrize convex subgroups: Ac(n) splits congruence
classes mod n, Ae(n) tracks the convex hull a term generates, Aep(n) is the
successor copy of Ae(n).  Atoms cover both the quotient-relation language
(MainRel and friends) and the restricted language whose only main-to-aux
symbols are the canonical maps (PlainRel, EqDot, CongDot, DPred).

Everything here is an immutable tree; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Mapping, Optional, Union


# ---------------------------------------------------------------------------
# Sorts

MAIN = "G"
AC = "Ac"
AE = "Ae"
AEP = "Aep"


@dataclass(frozen=True)
class Sort:
    kind: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind == MAIN:
            if self.n is not None:
                raise ValueError("main sort carries no modulus")
        elif self.kind in (AC, AE, AEP):
            if self.n is None or self.n < 2:
                raise ValueError("auxiliary sort needs a modulus >= 2")
        else:
            raise ValueError("unknown sort kind %r" % (self.kind,))

    @property
    def is_main(self) -> bool:
        return self.kind == MAIN

    def __repr__(self):
        if self.is_main:
            return "G"
        return "%s(%d)" % (self.kind, self.n)


SORT_G = Sort(MAIN)


def sort_ac(n: int) -> Sort:
    return Sort(AC, n)


def sort_ae(n: int) -> Sort:
    return Sort(AE, n)


def sort_aep(n: int) -> Sort:
    return Sort(AEP, n)


# ---------------------------------------------------------------------------
# Linear terms over main-sort variables

@dataclass(frozen=True)
class LinTerm:
    """Integer-linear combination of main-sort variables, no constant part."""

    coeffs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [v for v, _ in self.coeffs]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("coefficients must be sorted by variable")
        if any(c == 0 for _, c in self.coeffs):
            raise ValueError("zero coefficients must not be stored")

    @staticmethod
    def make(mapping: Mapping[str, int]) -> "LinTerm":
        return LinTerm(tuple(sorted((v, c) for v, c in mapping.items() if c != 0)))

    @staticmethod
    def var(name: str, c: int = 1) -> "LinTerm":
        return LinTerm.make({name: c})

    @staticmethod
    def zero() -> "LinTerm":
        return LinTerm(())

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def coeff(self, name: str) -> int:
        return self.as_dict().get(name, 0)

    def vars(self) -> set[str]:
        return {v for v, _ in self.coeffs}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinTerm") -> "LinTerm":
        d = self.as_dict()
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return LinTerm.make(d)

    def __neg__(self) -> "LinTerm":
        return LinTerm(tuple((v, -c) for v, c in self.coeffs))

    def __sub__(self, other: "LinTerm") -> "LinTerm":
        return self + (-other)

    def scale(self, k: int) -> "LinTerm":
        if k == 0:
            return LinTerm.zero()
        return LinTerm(tuple((v, k * c) for v, c in self.coeffs))

    def without(self, name: str) -> "LinTerm":
        return LinTerm(tuple((v, c) for v, c in self.coeffs if v != name))

    def subst(self, name: str, repl: "LinTerm") -> "LinTerm":
        c = self.coeff(name)
        if c == 0:
            return self
        return self.without(name) + repl.scale(c)


# ---------------------------------------------------------------------------
# Auxiliary-sort terms

class AuxTerm:
    """Base class for terms of auxiliary sort."""

    __slots__ = ()


def _modulus_check(x):
    """The modulus p of a canonical map or a dimension atom is at least 2,
    as the modulus of an auxiliary sort is."""

    if x.p < 2:
        raise ValueError("modulus must be >= 2")


@dataclass(frozen=True)
class AuxVar(AuxTerm):
    name: str
    sort: Optional[Sort] = None  # None until bound or resolved from context


@dataclass(frozen=True)
class Sc(AuxTerm):
    """Canonical map into Ac(p): the class of the largest convex subgroup H
    with arg outside H + p^r G."""

    p: int
    r: int
    arg: LinTerm

    def __post_init__(self):
        _modulus_check(self)
        if self.r < 1:
            raise ValueError("exponent must be >= 1")


@dataclass(frozen=True)
class Se(AuxTerm):
    """Canonical map into Ae(p): the class of the union of the Ac(p)-groups
    avoiding arg."""

    p: int
    arg: LinTerm

    __post_init__ = _modulus_check


@dataclass(frozen=True)
class SuccPlus(AuxTerm):
    """Successor map Ae(p) -> Aep(p)."""

    arg: AuxTerm


@dataclass(frozen=True)
class SortMin(AuxTerm):
    """The minimal point of an auxiliary sort (always realized)."""

    sort: Sort

    def __post_init__(self):
        if self.sort.kind not in (AC, AE):
            raise ValueError("minimum is only provided for Ac/Ae sorts")


@dataclass(frozen=True)
class SpineRef(AuxTerm):
    """A model-bound spine point, only valid relative to a fixed model."""

    sort: Sort
    class_id: str


def aux_term_sort(t: AuxTerm) -> Optional[Sort]:
    if isinstance(t, (AuxVar, SortMin, SpineRef)):
        return t.sort
    if isinstance(t, Sc):
        return sort_ac(t.p)
    if isinstance(t, Se):
        return sort_ae(t.p)
    if isinstance(t, SuccPlus):
        inner = aux_term_sort(t.arg)
        if inner is None:
            return None
        if inner.kind != AE:
            raise ValueError("successor applies to Ae terms only")
        return sort_aep(inner.n)
    raise TypeError("not an auxiliary term: %r" % (t,))


# ---------------------------------------------------------------------------
# Formulas; atoms are leaf formulas

class Formula:
    __slots__ = ()


class Atom(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class MainRel(Atom):
    """Quotient relation lhs <>_aux rhs + k, <> one of =, <, cong(m) or the
    bracket congruence cong(m) against the limit group of exponent mp."""

    op: str  # "eq" | "lt" | "cong" | "congb"
    lhs: LinTerm
    rhs: LinTerm
    k: int
    aux: AuxTerm
    m: int = 0
    mp: int = 0

    def __post_init__(self):
        if self.op in ("eq", "lt"):
            if self.m or self.mp:
                raise ValueError("eq/lt carry no modulus")
        elif self.op == "cong":
            if self.m < 1 or self.mp:
                raise ValueError("cong needs modulus >= 1")
        elif self.op == "congb":
            if self.m < 1 or self.mp < 1:
                raise ValueError("congb needs both moduli >= 1")
            if self.k != 0:
                raise ValueError("bracket congruence carries no offset")
        else:
            raise ValueError("bad relation %r" % (self.op,))


@dataclass(frozen=True)
class PlainRel(Atom):
    """Unrelativized lhs < rhs or lhs cong(m) rhs on the whole group."""

    op: str  # "lt" | "cong"
    lhs: LinTerm
    rhs: LinTerm
    m: int = 0

    def __post_init__(self):
        if self.op == "lt":
            if self.m:
                raise ValueError("lt carries no modulus")
        elif self.op == "cong":
            if self.m < 1:
                raise ValueError("cong needs modulus >= 1")
        else:
            raise ValueError("bad relation %r" % (self.op,))


@dataclass(frozen=True)
class AuxLe(Atom):
    lhs: AuxTerm
    rhs: AuxTerm


@dataclass(frozen=True)
class AuxAsymp(Atom):
    lhs: AuxTerm
    rhs: AuxTerm


@dataclass(frozen=True)
class Discr(Atom):
    aux: AuxTerm


@dataclass(frozen=True)
class DimSucc(Atom):
    """Fp-dimension of the step between consecutive bracket groups at aux."""

    p: int
    s: int
    ell: int
    aux: AuxTerm

    __post_init__ = _modulus_check


@dataclass(frozen=True)
class DimFloor(Atom):
    """Fp-dimension of a bracket group over the group at aux itself."""

    p: int
    s: int
    ell: int
    aux: AuxTerm

    __post_init__ = _modulus_check


@dataclass(frozen=True)
class EqDot(Atom):
    """t equals k times the minimal positive element of some discrete
    quotient."""

    k: int
    t: LinTerm

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("offset must be nonzero")


@dataclass(frozen=True)
class CongDot(Atom):
    """t is congruent mod m to k times the minimal positive element of some
    discrete quotient."""

    m: int
    k: int
    t: LinTerm

    def __post_init__(self):
        if not (1 <= self.k <= self.m - 1):
            raise ValueError("offset out of range 1..m-1")


@dataclass(frozen=True)
class DPred(Atom):
    """t lies in the bracket group of exponent p^s over its own canonical
    Ac(p)-point, but not in the plain coset group of exponent p^r there."""

    p: int
    r: int
    s: int
    t: LinTerm

    def __post_init__(self):
        _modulus_check(self)
        if self.s < self.r or self.r < 1:
            raise ValueError("need s >= r >= 1")


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: Sort
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: Sort
    body: Formula


# ---------------------------------------------------------------------------
# Smart constructors

def conj(parts) -> Formula:
    out: list[Formula] = []
    for f in parts:
        if isinstance(f, Bottom):
            return FALSE
        if isinstance(f, Top):
            continue
        if isinstance(f, And):
            out.extend(f.args)
        else:
            out.append(f)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def disj(parts) -> Formula:
    out: list[Formula] = []
    for f in parts:
        if isinstance(f, Top):
            return TRUE
        if isinstance(f, Bottom):
            continue
        if isinstance(f, Or):
            out.extend(f.args)
        else:
            out.append(f)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


def neg(f: Formula) -> Formula:
    if isinstance(f, Not):
        return f.arg
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bottom):
        return TRUE
    return Not(f)


def implies(a: Formula, b: Formula) -> Formula:
    return disj([neg(a), b])


def quant(kind, var: str, sort: Sort, body: Formula) -> Formula:
    """The quantifier kind (Exists or Forall) of var over body, or body
    itself when it is a constant: no sort is empty."""

    if isinstance(body, (Top, Bottom)):
        return body
    return kind(var, sort, body)


def main_rel(op: str, lhs: LinTerm, rhs: LinTerm, k: int, aux: AuxTerm,
             m: int = 0, mp: int = 0) -> Formula:
    """The relation lhs <>_aux rhs + k (see MainRel), with a congruence's
    offset reduced mod m, or the constant it is in every model: between
    equal sides, lt at k <= 0 is false and eq, cong and congb at offset 0
    are true.  Between equal sides at any other offset, whether the
    relation holds depends on whether the quotient at aux is discrete, so
    it stays."""

    if op == "cong":
        k %= m
    if lhs == rhs and (k <= 0 if op == "lt" else k == 0):
        return FALSE if op == "lt" else TRUE
    return MainRel(op, lhs, rhs, k, aux, m, mp)


# Comparisons of auxiliary points.  A sort minimum is the bottom class:
# nothing lies strictly below it and all minima lie in one class, so these
# comparisons, and those between equal terms, are decided on the spot.  The
# zero term lies in every convex subgroup and every coset group, so its
# canonical-map images are the minima.  Outside this module and the parser
# (which keeps atoms as written) only these, `main_rel` and `quant` build
# their nodes, as a test enforces, so with the connectives above they alone
# decide whether a newly built formula is a constant.

def can_image(t: AuxTerm) -> AuxTerm:
    """A canonical-map image `Sc` or `Se`, or its sort's minimum when it is
    the image of the zero term."""

    return SortMin(aux_term_sort(t)) if t.arg.is_zero() else t


def aux_le(a: AuxTerm, b: AuxTerm) -> Formula:
    if a == b or isinstance(a, SortMin):
        return TRUE
    return AuxLe(a, b)


def aux_lt(a: AuxTerm, b: AuxTerm) -> Formula:
    return neg(aux_le(b, a))


def aux_asymp(a: AuxTerm, b: AuxTerm) -> Formula:
    if a == b or (isinstance(a, SortMin) and isinstance(b, SortMin)):
        return TRUE
    return AuxAsymp(a, b)


# ---------------------------------------------------------------------------
# Traversal helpers

# Every atom and auxiliary-term class: (its fields that hold main-sort
# terms, its fields that hold auxiliary terms), read off the field
# annotations.  The walkers below, and the parser and printer in sexpr,
# read the term fields here; the other fields are parameters.
TERM_FIELDS: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {
    cls: tuple(tuple(f.name for f in fields(cls) if f.type == kind)
               for kind in ("LinTerm", "AuxTerm"))
    for cls in AuxTerm.__subclasses__() + Atom.__subclasses__()}


def atom_aux_terms(x: Union[Atom, AuxTerm]) -> list[AuxTerm]:
    """The auxiliary terms directly under an atom or an auxiliary term."""

    return [getattr(x, n) for n in TERM_FIELDS[type(x)][1]]


def lin_terms(x: Union[Atom, AuxTerm]) -> list[LinTerm]:
    """The main-sort terms of an atom or an auxiliary term, including those
    under a canonical map."""

    lins, auxs = TERM_FIELDS[type(x)]
    out = [getattr(x, n) for n in lins]
    for n in auxs:
        out += lin_terms(getattr(x, n))
    return out


def main_vars(x: Union[Atom, AuxTerm]) -> set[str]:
    """The main-sort variables of an atom or an auxiliary term, including
    those under a canonical map."""

    return {v for t in lin_terms(x) for v, _ in t.coeffs}


def occurrences(x: Union[Atom, AuxTerm]) -> dict:
    """The variables of an atom or an auxiliary term, in order of first
    occurrence, auxiliary terms first, each mapped to (its sort at its
    first occurrence, whether it occurs in a main-sort term); a name in a
    main-sort term is mapped to (G, True)."""

    out = {x.name: (x.sort, False)} if isinstance(x, AuxVar) else {}
    for t in atom_aux_terms(x):
        for v, o in occurrences(t).items():
            out.setdefault(v, o)
    for t in lin_terms(x):
        for v in t.vars():
            out[v] = (SORT_G, True)
    return out


def free_occurrences(f: Formula, cache: dict) -> dict:
    """The free variables of f, in order of first occurrence, each mapped to
    (its sort in the first atom where it occurs, whether it occurs in a
    main-sort term anywhere in f).  cache memoizes the answer per
    subformula, keyed by value, for as long as the caller keeps it; the
    answers are shared, so callers do not change them."""

    out = cache.get(f)
    if out is None:
        if isinstance(f, Atom):
            out = occurrences(f)
        elif isinstance(f, Not):
            out = free_occurrences(f.arg, cache)
        elif isinstance(f, (And, Or)):
            out = {}
            for g in f.args:
                for v, x in free_occurrences(g, cache).items():
                    y = out.get(v)
                    if y is None or (x[1] and not y[1]):
                        out[v] = x if y is None else (y[0], True)
        elif isinstance(f, (Exists, Forall)):
            out = {v: x for v, x in free_occurrences(f.body, cache).items()
                   if v != f.var}
        elif isinstance(f, (Top, Bottom)):
            out = {}
        else:
            raise TypeError("not a formula: %r" % (f,))
        cache[f] = out
    return out


def free_vars(f: Formula, cache: dict) -> dict[str, Optional[Sort]]:
    """Free variables of f with their sorts (None when undeclared), in order
    of first occurrence: G for a name used in a main-sort term anywhere in
    f, else its sort at its first occurrence.  cache is a
    `free_occurrences` cache."""

    return {v: SORT_G if in_main else s
            for v, (s, in_main) in free_occurrences(f, cache).items()}


def free_names(f: Formula, cache: dict):
    """The names of the free variables of f, as a set-like view; cache is a
    `free_occurrences` cache."""

    return free_occurrences(f, cache).keys()


def all_names(f: Formula) -> set[str]:
    """Every variable name in f, free or bound."""

    names = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            names.update(occurrences(g))
        elif isinstance(g, (Exists, Forall)):
            names.add(g.var)
    return names


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every distinct subformula, depth-first in order of first occurrence;
    a subformula that occurs at several positions is yielded once."""

    seen: set = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        yield g
        if isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.args))
        elif isinstance(g, (Exists, Forall)):
            stack.append(g.body)


def atoms_of(f: Formula) -> Iterator[Atom]:
    for g in subformulas(f):
        if isinstance(g, Atom):
            yield g


def rebuild(f: Formula, on_atom, on_quant=None) -> Formula:
    """f rebuilt bottom-up with each atom a replaced by on_atom(a).

    Connectives are put back with the smart constructors, after all their
    arguments are rebuilt, so on_atom sees every atom of f whatever the
    folding.  A quantifier q over the rebuilt body b becomes on_quant(q, b),
    or q over b by `quant` when on_quant is None.  One memo, keyed by value,
    lives for the call: each distinct subformula is rebuilt once, so equal
    atoms get one replacement even when on_atom draws fresh names."""

    memo: dict = {}

    def walk(g: Formula) -> Formula:
        out = memo.get(g)
        if out is None:
            if isinstance(g, Atom):
                out = on_atom(g)
            elif isinstance(g, Not):
                out = neg(walk(g.arg))
            elif isinstance(g, And):
                out = conj([walk(h) for h in g.args])
            elif isinstance(g, Or):
                out = disj([walk(h) for h in g.args])
            elif isinstance(g, (Exists, Forall)):
                body = walk(g.body)
                out = (quant(type(g), g.var, g.sort, body)
                       if on_quant is None else on_quant(g, body))
            elif isinstance(g, (Top, Bottom)):
                out = g
            else:
                raise TypeError("not a formula: %r" % (g,))
            memo[g] = out
        return out

    return walk(f)


# ---------------------------------------------------------------------------
# Substitution

Subst = Mapping[str, Union[LinTerm, AuxTerm]]


def subst_term(x: Union[Atom, AuxTerm], sub: Subst):
    """An atom or an auxiliary term with the substitution applied."""

    if isinstance(x, AuxVar):
        repl = sub.get(x.name)
        if repl is None:
            return x
        if isinstance(repl, LinTerm):
            raise TypeError("main-sort term substituted for aux variable %s"
                            % x.name)
        return repl
    return map_terms(x, lambda t: subst_lin(t, sub),
                     lambda t: subst_term(t, sub))


def subst_lin(t: LinTerm, sub: Subst) -> LinTerm:
    out = t
    for v in sorted(t.vars()):
        repl = sub.get(v)
        if repl is None:
            continue
        if not isinstance(repl, LinTerm):
            raise TypeError("aux term substituted for main variable %s" % v)
        out = out.subst(v, repl)
    return out


def map_terms(x, lin, aux):
    """x, an atom or an auxiliary term, rebuilt with each main-sort term t
    of its fields replaced by lin(t) and each auxiliary term t by aux(t);
    x itself when every replacement is the term it replaces."""

    new = {}
    for names, image in zip(TERM_FIELDS[type(x)], (lin, aux)):
        for n in names:
            t = getattr(x, n)
            u = image(t)
            if u is not t:
                new[n] = u
    return replace(x, **new) if new else x


def replace_aux_terms(a: Atom, mapping: Mapping[AuxTerm, AuxTerm]) -> Atom:
    """a with every auxiliary term that mapping holds, also one under a
    successor, replaced by its image; other atoms pass unchanged."""

    def rep(t: AuxTerm) -> AuxTerm:
        if t in mapping:
            return mapping[t]
        return map_terms(t, lambda u: u, rep)

    return map_terms(a, lambda t: t, rep)


class Fresh:
    """Monotonic fresh-name source, local to one rewriting task."""

    def __init__(self, prefix: str = "v", taken=()):
        self._prefix = prefix
        self._count = 0
        self._taken = set(taken)

    def reserve(self, names):
        self._taken.update(names)

    def __call__(self, hint: Optional[str] = None) -> str:
        base = hint or self._prefix
        while True:
            name = "%s%d" % (base, self._count)
            self._count += 1
            if name not in self._taken:
                self._taken.add(name)
                return name


def substitute(f: Formula, sub: Subst, fresh: Optional[Fresh] = None) -> Formula:
    """Capture-avoiding substitution of variables by terms.

    A subformula in which nothing changes is returned as it is.  A bound
    variable that a substituted term mentions is renamed; the new names
    come from fresh, by default a source built at the first such clash
    that avoids every name of f and of the substituted terms."""

    if not sub:
        return f

    def names(t) -> Iterable[str]:
        return t.vars() if isinstance(t, LinTerm) else occurrences(t)

    def rename(var: str) -> str:
        nonlocal fresh
        if fresh is None:
            fresh = Fresh("r", all_names(f))
            for t in sub.values():
                fresh.reserve(names(t))
        return fresh(var)

    def walk(g: Formula, part: Subst) -> Formula:
        if isinstance(g, Atom):
            return subst_term(g, part)
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, Not):
            arg = walk(g.arg, part)
            return g if arg is g.arg else Not(arg)
        if isinstance(g, (And, Or)):
            args = tuple(walk(h, part) for h in g.args)
            if all(a is h for a, h in zip(args, g.args)):
                return g
            return type(g)(args)
        if isinstance(g, (Exists, Forall)):
            rest = {v: t for v, t in part.items() if v != g.var}
            if not rest:
                return g
            var, body = g.var, g.body
            if any(var in names(t) for t in rest.values()):
                var = rename(g.var)
                new = (LinTerm.var(var) if g.sort.is_main
                       else AuxVar(var, g.sort))
                body = walk(body, {g.var: new})
            body = walk(body, rest)
            if var == g.var and body is g.body:
                return g
            return type(g)(var, g.sort, body)
        raise TypeError("not a formula: %r" % (g,))

    return walk(f, sub)


# ---------------------------------------------------------------------------
# Hash caching: nodes are immutable but deep, and the rewriting passes hash
# the same subtrees over and over, so each node remembers its hash.  It is
# kept in the instance dict, outside the dataclass fields, so ==, repr and
# the hash itself do not see it; sexpr.print_formula keeps a node's text
# ("_text") the same way.

def _install_cached_hash(cls):
    generated = cls.__hash__

    def __hash__(self, _generated=generated):
        h = self.__dict__.get("_hash")
        if h is None:
            h = _generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__


for _cls in (LinTerm, *TERM_FIELDS, Not, And, Or, Exists, Forall):
    _install_cached_hash(_cls)
