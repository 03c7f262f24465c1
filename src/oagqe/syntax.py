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

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union


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
        if self.r < 1:
            raise ValueError("exponent must be >= 1")


@dataclass(frozen=True)
class Se(AuxTerm):
    """Canonical map into Ae(p): the class of the union of the Ac(p)-groups
    avoiding arg."""

    p: int
    arg: LinTerm


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
    if isinstance(t, AuxVar):
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
    if isinstance(t, (SortMin, SpineRef)):
        return t.sort
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


@dataclass(frozen=True)
class DimFloor(Atom):
    """Fp-dimension of a bracket group over the group at aux itself."""

    p: int
    s: int
    ell: int
    aux: AuxTerm


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


# ---------------------------------------------------------------------------
# Traversal helpers

def atom_aux_terms(a: Atom) -> list[AuxTerm]:
    if isinstance(a, MainRel):
        return [a.aux]
    if isinstance(a, (AuxLe, AuxAsymp)):
        return [a.lhs, a.rhs]
    if isinstance(a, Discr):
        return [a.aux]
    if isinstance(a, (DimSucc, DimFloor)):
        return [a.aux]
    return []


def atom_lin_terms(a: Atom) -> list[LinTerm]:
    out = []
    if isinstance(a, (MainRel, PlainRel)):
        out += [a.lhs, a.rhs]
    if isinstance(a, (EqDot, CongDot, DPred)):
        out.append(a.t)
    for t in atom_aux_terms(a):
        out += aux_lin_args(t)
    return out


def aux_lin_args(t: AuxTerm) -> list[LinTerm]:
    if isinstance(t, (Sc, Se)):
        return [t.arg]
    if isinstance(t, SuccPlus):
        return aux_lin_args(t.arg)
    return []


def main_vars(x: Union[Atom, AuxTerm]) -> set[str]:
    """The main-sort variables of an atom or an auxiliary term, including
    those under a canonical map."""

    terms = aux_lin_args(x) if isinstance(x, AuxTerm) else atom_lin_terms(x)
    return {v for t in terms for v, _ in t.coeffs}


def aux_free_vars(t: AuxTerm) -> dict[str, Optional[Sort]]:
    out: dict[str, Optional[Sort]] = {}
    if isinstance(t, AuxVar):
        out[t.name] = t.sort
    elif isinstance(t, SuccPlus):
        out.update(aux_free_vars(t.arg))
    for lt in aux_lin_args(t):
        for v in lt.vars():
            out[v] = SORT_G
    return out


def free_vars(f: Formula) -> dict[str, Optional[Sort]]:
    """Free variables with their sorts (None when undeclared)."""

    out: dict[str, Optional[Sort]] = {}
    seen: set = set()

    def walk(g: Formula, bound: frozenset[str]):
        key = (g, bound)
        if key in seen:
            return
        seen.add(key)
        if isinstance(g, Atom):
            for t in atom_aux_terms(g):
                for v, s in aux_free_vars(t).items():
                    if v not in bound:
                        out.setdefault(v, s)
            for lt in atom_lin_terms(g):
                for v in lt.vars():
                    if v not in bound:
                        out[v] = SORT_G
        elif isinstance(g, Not):
            walk(g.arg, bound)
        elif isinstance(g, (And, Or)):
            for h in g.args:
                walk(h, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})
        elif isinstance(g, (Top, Bottom)):
            pass
        else:
            raise TypeError("not a formula: %r" % (g,))

    walk(f, frozenset())
    return out


def free_names(f: Formula, cache: dict) -> frozenset:
    """Names of the free variables of f.  cache memoizes the answer per
    subformula, keyed by value, for as long as the caller keeps it."""

    names = cache.get(f)
    if names is None:
        if isinstance(f, Atom):
            names = frozenset(free_vars(f))
        elif isinstance(f, Not):
            names = free_names(f.arg, cache)
        elif isinstance(f, (And, Or)):
            names = frozenset().union(*(free_names(g, cache) for g in f.args))
        elif isinstance(f, (Exists, Forall)):
            names = free_names(f.body, cache) - {f.var}
        elif isinstance(f, (Top, Bottom)):
            names = frozenset()
        else:
            raise TypeError("not a formula: %r" % (f,))
        cache[f] = names
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


def has_main_quantifier(f: Formula) -> bool:
    return any(
        isinstance(g, (Exists, Forall)) and g.sort.is_main for g in subformulas(f)
    )


def rebuild(f: Formula, on_atom, on_quant=None) -> Formula:
    """f rebuilt bottom-up with each atom a replaced by on_atom(a).

    Connectives are put back with the smart constructors, after all their
    arguments are rebuilt, so on_atom sees every atom of f whatever the
    folding.  A quantifier q over the rebuilt body b becomes on_quant(q, b),
    or q with body b when on_quant is None.  One memo, keyed by value,
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
                out = (type(g)(g.var, g.sort, body) if on_quant is None
                       else on_quant(g, body))
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


def subst_aux_term(t: AuxTerm, sub: Subst) -> AuxTerm:
    if isinstance(t, AuxVar):
        repl = sub.get(t.name)
        if repl is None:
            return t
        if isinstance(repl, LinTerm):
            raise TypeError("main-sort term substituted for aux variable %s" % t.name)
        return repl
    if isinstance(t, Sc):
        return Sc(t.p, t.r, subst_lin(t.arg, sub))
    if isinstance(t, Se):
        return Se(t.p, subst_lin(t.arg, sub))
    if isinstance(t, SuccPlus):
        return SuccPlus(subst_aux_term(t.arg, sub))
    return t


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


def map_atom_terms(a: Atom, lin, aux) -> Atom:
    """a rebuilt with each main-sort term t replaced by lin(t) and each
    auxiliary term t by aux(t); the one per-type atom rebuild."""

    if isinstance(a, MainRel):
        return MainRel(a.op, lin(a.lhs), lin(a.rhs), a.k, aux(a.aux), a.m,
                       a.mp)
    if isinstance(a, PlainRel):
        return PlainRel(a.op, lin(a.lhs), lin(a.rhs), a.m)
    if isinstance(a, (AuxLe, AuxAsymp)):
        return type(a)(aux(a.lhs), aux(a.rhs))
    if isinstance(a, Discr):
        return Discr(aux(a.aux))
    if isinstance(a, (DimSucc, DimFloor)):
        return type(a)(a.p, a.s, a.ell, aux(a.aux))
    if isinstance(a, EqDot):
        return EqDot(a.k, lin(a.t))
    if isinstance(a, CongDot):
        return CongDot(a.m, a.k, lin(a.t))
    if isinstance(a, DPred):
        return DPred(a.p, a.r, a.s, lin(a.t))
    raise TypeError("not an atom: %r" % (a,))


def subst_atom(a: Atom, sub: Subst) -> Atom:
    return map_atom_terms(a, lambda t: subst_lin(t, sub),
                          lambda t: subst_aux_term(t, sub))


def replace_aux_terms(a: Atom, mapping: Mapping[AuxTerm, AuxTerm]) -> Atom:
    """a with every auxiliary term that mapping holds, also one under a
    successor, replaced by its image; other atoms pass unchanged."""

    def rep(t: AuxTerm) -> AuxTerm:
        if t in mapping:
            return mapping[t]
        if isinstance(t, SuccPlus):
            return SuccPlus(rep(t.arg))
        return t

    if not atom_aux_terms(a):
        return a
    return map_atom_terms(a, lambda t: t, rep)


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
    """Capture-avoiding substitution of variables by terms."""

    if not sub:
        return f
    if fresh is None:
        fresh = Fresh("r")
        fresh.reserve(free_vars(f).keys())
        for repl in sub.values():
            if isinstance(repl, LinTerm):
                fresh.reserve(repl.vars())
            else:
                fresh.reserve(aux_free_vars(repl).keys())

    if isinstance(f, Atom):
        return subst_atom(f, sub)
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.arg, sub, fresh))
    if isinstance(f, And):
        return And(tuple(substitute(g, sub, fresh) for g in f.args))
    if isinstance(f, Or):
        return Or(tuple(substitute(g, sub, fresh) for g in f.args))
    if isinstance(f, (Exists, Forall)):
        sub2 = {v: t for v, t in sub.items() if v != f.var}
        clash = False
        for repl in sub2.values():
            names = (repl.vars() if isinstance(repl, LinTerm)
                     else aux_free_vars(repl).keys())
            if f.var in names:
                clash = True
        var, body = f.var, f.body
        if clash:
            var = fresh(f.var)
            if f.sort.is_main:
                body = substitute(body, {f.var: LinTerm.var(var)}, fresh)
            else:
                body = substitute(body, {f.var: AuxVar(var, f.sort)}, fresh)
        body = substitute(body, sub2, fresh)
        return type(f)(var, f.sort, body)
    raise TypeError("not a formula: %r" % (f,))


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


for _cls in (LinTerm, AuxVar, Sc, Se, SuccPlus, SortMin, SpineRef,
             MainRel, PlainRel, AuxLe, AuxAsymp, Discr, DimSucc, DimFloor,
             EqDot, CongDot, DPred, Not, And, Or, Exists, Forall):
    _install_cached_hash(_cls)
