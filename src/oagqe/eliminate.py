"""Elimination of main-sort existential quantifiers.

The engine works on conjunctions of anchored literals in one distinguished
main variable.  Coefficients are scaled to one, inequalities are reduced
pair by pair to a gap analysis at the dominating class, and the remaining
congruence systems are solved prime by prime through coset normalization
and a counting condition on quotient dimensions.  The gap analysis has one
branch per candidate witness, each with at most one equality; the guards of
these branches may overlap, and the final family union form is disjoint
again.  Everything a step cannot decide outright is pushed into guard
formulas over the auxiliary sorts, so the output is quantifier-free in the
main sort and exactly equivalent.  Guards, main relations and quantifiers
are built with the folding builders of syntax.py, so a dead guard is FALSE.

`eliminate_exists_main` is the one entry to the step: the Part 1
(inequality) and Part 2 (congruence) analyses below are private and reached
only through it.  `qe_driver` wires the step into full formulas: innermost
main quantifiers are eliminated first, the results are re-expressed through
the canonical maps, and the final matrix is brought back into family union
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .models import TOPG, prime_power_parts
from .normal import FamilyUnionForm, ResourceLimit
from .syntax import (
    FALSE, TRUE, AuxTerm, Bottom, Exists, Formula, Fresh, LinTerm, MainRel,
    Se, SortMin, all_names, aux_asymp, aux_le, aux_lt, can_image, conj,
    disj, main_rel, main_vars, neg, quant, rebuild, sort_ac,
)
from .translate import (
    dim_chain_formula, discr_lift, qe_atom_to_syn, syn_qf_to_qe_fuf,
)


# ---------------------------------------------------------------------------
# Data shapes

@dataclass(frozen=True)
class Coset:
    """One congruence condition x in c + k*1_aux + (group at aux + p^r G).

    s selects the limit group of exponent p^s over the class; None selects
    the class group itself.  Bracket conditions carry no offset (k = 0).
    """

    aux: AuxTerm
    p: int
    r: int
    s: Optional[int]
    c: LinTerm
    k: int


@dataclass(frozen=True)
class _Bound:
    aux: AuxTerm
    c: LinTerm
    k: int
    strict: bool


@dataclass(frozen=True)
class _EqRep:
    aux: AuxTerm
    c: LinTerm
    k: int


@dataclass(frozen=True)
class _CongRec:
    pol: bool
    aux: AuxTerm
    m: int
    mp: Optional[int]  # bracket exponent, None for the plain class group
    c: LinTerm
    k: int


class _Ctx:
    def __init__(self, fresh: Fresh, limit: int):
        self.fresh = fresh
        self.limit = limit
        self.count = 0
        self.dim_cache = {}
        self.prime_cache = {}
        self.cong_cache = {}
        self.discr_cache = {}

    def tick(self, n: int = 1):
        self.count += n
        if self.count > self.limit:
            raise ResourceLimit("branch budget exceeded (%d)" % self.limit)

    def dim(self, p, lower, upper, ell) -> Formula:
        key = (p, lower, upper, ell)
        if key not in self.dim_cache:
            self.dim_cache[key] = dim_chain_formula(p, lower, upper, ell,
                                                    self.fresh)
        return self.dim_cache[key]

    def discr(self, term) -> Formula:
        # one witness formula per anchor, so equal anchors stay one unit
        if term not in self.discr_cache:
            self.discr_cache[term] = discr_lift(term, self.fresh)
        return self.discr_cache[term]


def power_sum_bound(n: int, nu: int) -> int:
    """Smallest N such that nu negative powers of n can only reach total 1
    if the powers below n**N alone already reach 1."""

    if n < 2:
        raise ValueError("base must be >= 2")
    if nu < 0:
        raise ValueError("term count must be >= 0")
    if nu == 0:
        return 0
    return -(-nu // (n - 1))


# ---------------------------------------------------------------------------
# Literal records

def _gather(var: str, lits):
    """Split literals into var-free ones and raw anchored records in var."""

    xfree, raws = [], []
    for a, pol in lits:
        if var not in main_vars(a):
            xfree.append((a, pol))
            continue
        if not isinstance(a, MainRel):
            raise ValueError("quantified variable in a non-anchored atom: "
                             "%r" % (a,))
        if var in main_vars(a.aux):
            raise ValueError("quantified variable inside an anchor: "
                             "%r" % (a,))
        d = a.lhs - a.rhs
        r = d.coeff(var)
        if r == 0:
            # var cancels: restate the literal without it
            xfree.append((main_rel(a.op, a.lhs.without(var),
                                   a.rhs.without(var), a.k, a.aux, a.m,
                                   a.mp), pol))
            continue
        raws.append((a.op, pol, r, d.without(var), a.k, a.m, a.mp, a.aux))
    return xfree, raws


def _scale_records(raws):
    """Records with the variable coefficient scaled to one.

    Returns (lowers, uppers, equalities, inequations, congruences, R) with
    every literal rewritten for x' = R*x; membership of x' in RG is added
    as a congruence when R > 1.
    """

    R = 1
    for _, _, r, _, _, _, _, _ in raws:
        R = R * abs(r) // math.gcd(R, abs(r))
    lowers, uppers, eqs, nes, congs = [], [], [], [], []
    for op, pol, r, w, k, m, mp, aux in raws:
        c = R // r
        rep = w.scale(-c)
        if op == "eq":
            (eqs if pol else nes).append(_EqRep(aux, rep, c * k))
        elif op == "lt":
            if (c > 0) == pol:
                # x' < rep + ck, or the negation of rep + ck < x'
                uppers.append(_Bound(aux, rep, c * k, pol))
            else:
                lowers.append(_Bound(aux, rep, c * k, pol))
        elif op == "cong":
            m2 = abs(c) * m
            congs.append(_CongRec(pol, aux, m2, None, rep, (c * k) % m2))
        else:
            m2, mp2 = abs(c) * m, abs(c) * mp
            congs.append(_CongRec(pol, aux, math.gcd(m2, mp2), mp2, rep, 0))
    if R > 1:
        congs.append(_CongRec(True, SortMin(sort_ac(2)), R, None,
                              LinTerm.zero(), 0))
    return lowers, uppers, eqs, nes, congs, R


def _cong_m0(congs) -> int:
    m0 = 1
    for rec in congs:
        m0 = m0 * rec.m // math.gcd(m0, rec.m)
    return m0


# ---------------------------------------------------------------------------
# Part one: inequalities

def _pair_branches(lo: _Bound, up: _Bound, congs, m0: int, ctx: _Ctx):
    """Branches for one lower/upper pair.

    Each branch is (guard, equality record or None, congruence records);
    under the guard, the pair together with the congruences admits a
    witness iff some branch's guard holds and its equality and congruences
    are solvable.  Guards of distinct branches may overlap; regions covered
    by no branch admit none.

    A witness-offset branch needs no cap on the gap: in a discrete quotient
    the point i steps above the lower bound lies within the bounds whenever
    the gap is at least i steps (i + 1 below a strict upper bound), however
    wide.  The wide branch covers every gap of more than m0 + 1 steps.
    """

    if (not lo.strict and not up.strict and lo.aux == up.aux
            and lo.c == up.c and lo.k == up.k):
        # degenerate interval: the witness is pinned to the bound
        return [(TRUE, _EqRep(lo.aux, lo.c, lo.k), tuple(congs))]
    t, zero = up.c - lo.c, LinTerm.zero()
    M = m0 if m0 >= 2 else 2
    e = can_image(Se(M, t))
    base = tuple(congs)
    branches = []
    gammas = [
        # both bounds and their gap live at the lower bound's class
        ((aux_asymp(up.aux, lo.aux), aux_le(e, lo.aux)), lo.aux,
         (lo.k, lo.strict), (up.k, up.strict)),
        # the upper bound sits strictly below: it only cuts at lo's class
        ((aux_lt(up.aux, lo.aux), aux_le(e, lo.aux)), lo.aux,
         (lo.k, lo.strict), (0, False)),
        ((aux_lt(lo.aux, up.aux), aux_le(e, up.aux)), up.aux,
         (0, False), (up.k, up.strict)),
        # both bounds vanish below the class of the difference
        ((aux_lt(lo.aux, e), aux_lt(up.aux, e)), e,
         (0, False), (0, False)),
    ]

    def emit(guard, eq, cs):
        if not isinstance(guard, Bottom):
            ctx.tick()
            branches.append((guard, eq, cs))

    for raw_pre, gamma, (klo, slo), (kup, sup) in gammas:
        pre = conj(raw_pre)
        if isinstance(pre, Bottom):
            continue
        # the gap is more than m0 + 1 minimal positive steps at gamma
        big = main_rel("lt", zero, t, kup - klo - (m0 + 1), gamma)
        dg = ctx.discr(gamma)
        # a gap wider than the congruence period: the bounds only pin the
        # residue of x against the limit group at gamma
        wide = base
        if m0 > 1:
            wide = base + (_CongRec(True, gamma, m0, m0, lo.c, 0),)
        emit(conj([pre, big]), None, wide)
        if not slo and not sup:
            emit(conj([pre, neg(big), neg(dg),
                       main_rel("eq", up.c, lo.c, klo - kup, gamma)]),
                 _EqRep(gamma, lo.c, klo), base)
        # a gap of at least i + s steps (s = 1 against a strict upper bound)
        # in a discrete quotient admits the witness i steps above lo
        s = 1 if sup else 0
        for i in range(1 if slo else 0, m0 + 2 - s):
            emit(conj([pre, dg,
                       main_rel("lt", zero, t, kup - klo - i - s + 1, gamma)]),
                 _EqRep(gamma, lo.c, klo + i), base)
    return branches


# ---------------------------------------------------------------------------
# Part two: congruences, prime by prime

def _prime_split(rec: _CongRec):
    """Prime-power cosets whose conjunction is the record's positive sense,
    or None when the condition is the whole group."""

    if rec.mp is None:
        if rec.m == 1:
            return None
        return [Coset(rec.aux, p, r, None, rec.c, rec.k)
                for p, r in prime_power_parts(rec.m)]
    m = math.gcd(rec.m, rec.mp)
    if m == 1:
        return None
    rs = dict(prime_power_parts(m))
    return [Coset(rec.aux, p, rs[p], s, rec.c, 0)
            for p, s in prime_power_parts(rec.mp) if p in rs]


def _group_le_static(a: Coset, b: Coset) -> bool:
    """Containment of the two groups when the anchors share a class."""

    if a.s is None:
        return True
    if b.s is None:
        return False
    return a.s >= b.s


def _coset_member(small: Coset, big: Coset, p: int, r: int,
                  ctx: _Ctx) -> Formula:
    """The small coset's representative belongs to the big one.

    Assumes (by guard context) that the small group is contained in the
    big one, so every offset class sits at or below the big anchor."""

    diff, zero = small.c - big.c, LinTerm.zero()
    m = p ** r
    if big.s is not None:
        # the limit group absorbs minimal positive elements of its class
        # and of every class below
        return main_rel("congb", diff, zero, 0, big.aux, m, p ** big.s)
    # small.c + small.k * 1 lies in big.c + big.k * 1 + group, i.e. the
    # difference is congruent to (big.k - small.k) minimal positive steps
    base = 0
    others = []
    for kk, al in ((-small.k, small.aux), (big.k, big.aux)):
        if kk == 0:
            continue
        if al == big.aux:
            base += kk
        else:
            others.append((kk, al))
    if not others:
        return main_rel("cong", diff, zero, base, big.aux, m)
    out = []
    for picks in product((False, True), repeat=len(others)):
        ctx.tick()
        k = base
        guards = []
        for (kk, al), taken in zip(others, picks):
            guards.append(aux_asymp(al, big.aux) if taken
                          else aux_lt(al, big.aux))
            if taken:
                k += kk
        guards.append(main_rel("cong", diff, zero, k, big.aux, m))
        out.append(conj(guards))
    return disj(out)


def _compare(a: Coset, b: Coset, guard, p: int, r: int, ctx: _Ctx):
    """Decide which of the two groups contains the other, and whether the
    smaller coset's representative lies in the bigger coset.

    Yields (True if a's group is the smaller one, guard extended by the
    order atoms and the membership, guard extended by the order atoms and
    its negation); a dead guard is FALSE."""

    if a.aux == b.aux:
        options = [(TRUE, _group_le_static(a, b))]
    else:
        options = [
            (aux_lt(a.aux, b.aux), True),
            (aux_lt(b.aux, a.aux), False),
            (aux_asymp(a.aux, b.aux), _group_le_static(a, b)),
        ]
    for g, a_smaller in options:
        if isinstance(g, Bottom):
            continue
        small, big = (a, b) if a_smaller else (b, a)
        tst = _coset_member(small, big, p, r, ctx)
        yield (a_smaller, conj([guard, g, tst]),
               conj([guard, g, neg(tst)]))


def _coset_branches(p: int, r: int, level, ctx: _Ctx):
    """Normalize the top-level literals of one prime step.

    Yields (guard, positive coset or None, disjoint negatives all
    contained in the positive).  Guard regions of distinct outputs are
    disjoint; regions covered by none admit no witness."""

    positives = [cs for pol, cs in level if pol]
    negatives = [cs for pol, cs in level if not pol]
    states = [(TRUE, None, negatives)]
    for cs in positives:
        nxt = []
        for guard, pos, negs in states:
            if pos is None:
                nxt.append((guard, cs, negs))
                continue
            for cs_smaller, hit, _ in _compare(cs, pos, guard, p, r, ctx):
                if not isinstance(hit, Bottom):
                    nxt.append((hit, cs if cs_smaller else pos, negs))
                # disjoint positives leave nothing: no branch emitted
        states = nxt
        ctx.tick(len(states))

    # each negative is dropped, kept, or kills the state
    refined = []
    for guard, pos, negs in states:
        stack = [(guard, [], list(negs))]
        while stack:
            g, kept, pending = stack.pop()
            if not pending:
                refined.append((g, pos, kept))
                continue
            cs, pending = pending[0], pending[1:]
            ctx.tick()
            if pos is None:
                stack.append((g, kept + [cs], pending))
                continue
            for cs_smaller, hit, miss in _compare(cs, pos, g, p, r, ctx):
                # when the positive fits inside the negative, a hit empties
                # the state; a miss always makes the negative irrelevant
                if cs_smaller and not isinstance(hit, Bottom):
                    stack.append((hit, kept + [cs], pending))
                if not isinstance(miss, Bottom):
                    stack.append((miss, kept, pending))

    # subsumption between negatives: keep a pairwise-disjoint set
    out = []
    for guard, pos, negs in refined:
        # state: (guard, disjoint kept set, candidate, index into kept,
        #         still-pending candidates)
        stack = [(guard, [], None, 0, negs)]
        while stack:
            g, kept, cs, idx, pending = stack.pop()
            ctx.tick()
            if cs is None:
                if not pending:
                    out.append((g, pos, kept))
                else:
                    stack.append((g, kept, pending[0], 0, pending[1:]))
                continue
            if idx == len(kept):
                stack.append((g, kept + [cs], None, 0, pending))
                continue
            other = kept[idx]
            for cs_smaller, hit, miss in _compare(cs, other, g, p, r, ctx):
                if not isinstance(hit, Bottom):
                    if cs_smaller:
                        # a hit folds the candidate into the kept one
                        stack.append((hit, kept, None, 0, pending))
                    else:
                        rest = kept[:idx] + kept[idx + 1:]
                        stack.append((hit, rest, cs, idx, pending))
                if not isinstance(miss, Bottom):
                    stack.append((miss, kept, cs, idx + 1, pending))
    return out


def _hdesc(cs: Coset, r: int):
    """Descriptor of (group + p^(r-1) G) / p^(r-1) G for dimension chains."""

    if cs.s is None:
        return (cs.aux, None)
    return (cs.aux, cs.s - r + 1)


def _sum_condition(p: int, r: int, pos: Optional[Coset], selected,
                   ctx: _Ctx) -> Formula:
    """The selected excluded cosets do not fill their common ambient coset.

    Expressed through quotient dimensions: with q the index of each
    excluded group inside the ambient one, the sum of 1/q stays below one.
    Dimensions at or above the truncation bound contribute nothing."""

    if not selected:
        return TRUE
    upper = TOPG if pos is None else _hdesc(pos, r)
    N = power_sum_bound(p, len(selected))
    opts = []
    for cs in selected:
        fin = [ctx.dim(p, _hdesc(cs, r), upper, ell) for ell in range(N)]
        opts.append(fin + [neg(disj(list(fin)))])
    out = []
    for choice in product(range(N + 1), repeat=len(selected)):
        total = sum((Fraction(1, p ** ell)
                     for ell in choice if ell < N), Fraction(0))
        if total < 1:
            ctx.tick()
            out.append(conj([opts[i][ell]
                             for i, ell in enumerate(choice)]))
    return disj(out)


def _relax(cs: Coset, gr: int) -> Coset:
    return Coset(cs.aux, cs.p, gr, cs.s, cs.c, cs.k)


def _level_step(p: int, r: int, pos: Optional[Coset], negs, rest,
                ctx: _Ctx) -> Formula:
    """One level of the prime recursion, after coset normalization.

    Splits on which excluded cosets stay relevant inside the witness's
    p^(r-1) G class, checks the counting condition there, and recurses on
    the relaxed memberships together with the lower-level literals."""

    gr = r - 1
    cond1 = [(True, _relax(pos, gr))] if pos is not None else []
    if gr == 0:
        subsets = [tuple(range(len(negs)))]
    else:
        subsets = [tuple(idx) for n in range(len(negs) + 1)
                   for idx in combinations(range(len(negs)), n)]
    out = []
    for chosen in subsets:
        ctx.tick()
        sumc = _sum_condition(p, r, pos, [negs[i] for i in chosen], ctx)
        if isinstance(sumc, Bottom):
            continue
        mems = cond1 + [(i in chosen, _relax(negs[i], gr))
                        for i in range(len(negs))]
        out.append(conj([sumc, _exists_prime(p, rest + mems, ctx)]))
    return disj(out)


def _exists_prime(p: int, lits, ctx: _Ctx) -> Formula:
    """Solvability of a one-prime coset system in the quantified variable,
    as a formula over the parameters only."""

    live = []
    for pol, cs in lits:
        if cs.r <= 0:
            if not pol:
                return FALSE
            continue
        if (pol, cs) not in live:
            live.append((pol, cs))
    if not live:
        return TRUE
    key = (p, frozenset(live))
    cached = ctx.prime_cache.get(key)
    if cached is not None:
        return cached
    r = max(cs.r for _, cs in live)
    level = [(pol, cs) for pol, cs in live if cs.r == r]
    rest = [(pol, cs) for pol, cs in live if cs.r < r]
    out = []
    for guard, pos, negs in _coset_branches(p, r, level, ctx):
        out.append(conj([guard, _level_step(p, r, pos, negs, rest, ctx)]))
    res = disj(out)
    ctx.prime_cache[key] = res
    return res


def _part2_core(eq: Optional[_EqRep], congs, ctx: _Ctx) -> Formula:
    """Solvability of a congruence system with at most one equality."""

    key = (eq, tuple(congs))
    cached = ctx.cong_cache.get(key)
    if cached is not None:
        return cached
    clauses = [[]]
    for rec in congs:
        parts = _prime_split(rec)
        if parts is None:
            if rec.pol:
                continue
            return FALSE
        if rec.pol:
            for cl in clauses:
                cl.extend((True, cs) for cs in parts)
        else:
            # the negation fails in at least one prime component
            clauses = [cl + [(False, cs)]
                       for cl in clauses for cs in parts]
            ctx.tick(len(clauses))
    out = []
    for cl in clauses:
        by_p = {}
        for pol, cs in cl:
            by_p.setdefault(cs.p, []).append((pol, cs))
        fs = []
        for p in sorted(by_p):
            plist = by_p[p]
            if eq is not None:
                r = max(cs.r for _, cs in plist)
                plist = plist + [(True, Coset(eq.aux, p, r, None,
                                              eq.c, eq.k))]
            fs.append(_exists_prime(p, plist, ctx))
        out.append(conj(fs))
    res = disj(out)
    ctx.cong_cache[key] = res
    return res


# ---------------------------------------------------------------------------
# The composed step and the driver

def _clause_formula(lowers, uppers, congs, m0, ctx: _Ctx) -> Formula:
    if not lowers or not uppers:
        return _part2_core(None, tuple(congs), ctx)
    fs = []
    for lo in lowers:
        for up in uppers:
            branches = _pair_branches(lo, up, congs, m0, ctx)
            fs.append(disj([conj([g, _part2_core(eq, cs, ctx)])
                            for g, eq, cs in branches]))
    return conj(fs)


def eliminate_exists_main(var: str, lits, fresh: Fresh = None, *,
                          max_branches: int = 200000) -> Formula:
    """Eliminate an existential main quantifier from a literal conjunction.

    Returns a main-quantifier-free formula equivalent to exists var of the
    conjunction.
    """

    lits = list(lits)
    if fresh is None:
        fresh = Fresh("b", all_names(conj([a if pol else neg(a)
                                           for a, pol in lits])) | {var})
    ctx = _Ctx(fresh, max_branches)
    xfree, raws = _gather(var, lits)
    lowers, uppers, eqs, nes, congs, _ = _scale_records(raws)
    for e in eqs:
        lowers.append(_Bound(e.aux, e.c, e.k, False))
        uppers.append(_Bound(e.aux, e.c, e.k, False))
    m0 = _cong_m0(congs)
    clause_fs = []
    for sides in product((0, 1), repeat=len(nes)):
        ctx.tick()
        los = lowers + [_Bound(n.aux, n.c, n.k, True)
                        for n, side in zip(nes, sides) if side == 0]
        ups = uppers + [_Bound(n.aux, n.c, n.k, True)
                        for n, side in zip(nes, sides) if side == 1]
        clause_fs.append(_clause_formula(los, ups, congs, m0, ctx))
    return conj([a if pol else neg(a) for a, pol in xfree] +
                [disj(clause_fs)])


# qe_driver's default limits, which the evaluator also eliminates with
_CAP, _MAX_BRANCHES = 4096, 200000


def _push_out_main(f: Formula, fresh: Fresh, cap: int = _CAP,
                   max_branches: int = _MAX_BRANCHES) -> Formula:
    def on_quant(q, body):
        if not q.sort.is_main:
            return quant(type(q), q.var, q.sort, body)
        if isinstance(q, Exists):
            return _main_exists(q.var, body, fresh, cap, max_branches)
        return neg(_main_exists(q.var, neg(body), fresh, cap,
                                max_branches))

    return rebuild(f, lambda a: a, on_quant)


def _main_exists(var: str, body: Formula, fresh: Fresh, cap: int,
                 max_branches: int) -> Formula:
    fuf = syn_qf_to_qe_fuf(body, fresh, cap)
    parts = []
    for cl in fuf.clauses:
        chi = eliminate_exists_main(var, list(cl.psi), fresh,
                                    max_branches=max_branches)
        # every anchored relation is re-expressed through plain relations,
        # dotted predicates and canonical-map comparisons; rebuild
        # translates each distinct atom once: equal atoms must come out as
        # the same translation, or their fresh witnesses would make them
        # distinct branching units downstream
        chi = rebuild(chi, lambda a: qe_atom_to_syn(a, fresh))
        inner = conj([cl.xi, chi])
        for name, sort in reversed(cl.theta):
            inner = quant(Exists, name, sort, inner)
        parts.append(inner)
    return disj(parts)


def qe_driver(f: Formula, *, cap: int = _CAP,
              max_branches: int = _MAX_BRANCHES) -> FamilyUnionForm:
    """Full relative elimination: remove every main-sort quantifier and
    return the result in family union form.

    Main quantifiers are eliminated innermost first; after each step the
    result is re-expressed through the canonical maps, so the next step
    again sees only plain and dotted main content.  Raises ResourceLimit
    when a branching budget is exceeded; logically impossible inputs
    simply come out as an empty or false union; a negative cap or budget
    raises ValueError.  One fresh-name source, which reserves every name
    of f, serves every step.
    """

    for name, value in (("cap", cap), ("max_branches", max_branches)):
        if value < 0:
            raise ValueError("negative %s %d" % (name, value))
    fresh = Fresh("b", all_names(f))
    g = _push_out_main(f, fresh, cap, max_branches)
    return syn_qf_to_qe_fuf(g, fresh, cap)
