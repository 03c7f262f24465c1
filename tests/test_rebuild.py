"""The value-keyed rewriter `rebuild`, `free_names` and the final case
split against the walkers they replaced.

Each reference below is the identity-keyed walk that a pass used before it
went through `rebuild`; the atom-level rules (`qe_atom_to_syn`,
`_syn_atom_rewrite`, `replace_aux_terms`) are the program's own.  The
exceptions are the family union builder as it was before its case split
went through the auxiliary blocks: `_ref_syn_qf_to_qe_fuf` keeps it whole,
with its atom rule and its hoisting, as the reference for
`syn_qf_to_qe_fuf`; and the Shannon splitter as it was before it worked on
a table of integer nodes: `_RefSplitter` and `_ref_disjoint_clauses` keep it
whole, caching cofactors per formula node, as the reference for
`disjoint_clauses`.
The random formulas draw their nodes from a growing pool, so subformulas
recur both by identity (a pooled node reused) and by value only (a deep
copy), and some connectives are built raw.
"""

import copy
import importlib
import random

import pytest

from conftest import (
    AUX_FREE, FIXTURE_MODELS, aux_assignment, main_assignment, rand_bool,
    rand_syn_atom, rand_term,
)
from helpers import boolean_units
from oagqe.eliminate import eliminate_exists_main
from oagqe.evaluate import evaluator, family_evaluator
from oagqe.models import prime_power_parts
from oagqe.normal import (
    FamilyUnionForm, FUClause, OutsideFragment, ResourceLimit,
    ShannonSplitter, _can_subterms, disjoint_clauses, dnf_disjoint_tree,
    extract_can_terms, hoist_main_units, unit_involves_main,
)
from oagqe.syntax import (
    FALSE, TRUE, And, Atom, AuxLe, AuxVar, Bottom, CongDot, Discr, DPred,
    EqDot, Exists, Forall, Fresh, LinTerm, MainRel, Not, Or, PlainRel,
    SORT_G, Sc, Se, SortMin, SuccPlus, Top, all_names, atom_aux_terms,
    atoms_of, aux_term_sort, conj, disj, free_names, free_vars, lin_terms,
    neg, quant, rebuild, replace_aux_terms, sort_ac, sort_aep, subformulas,
)
from oagqe.translate import _pin_formula, qe_atom_to_syn, syn_qf_to_qe_fuf

BOT = SortMin(sort_ac(2))
A = AuxVar("a", sort_ac(2))


# ---------------------------------------------------------------------------
# References: the identity-keyed walkers as they were

def _ref_formula_to_syn(f, fresh, memo=None):
    # shared nodes by identity, atoms additionally by value
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Atom):
        out = memo.get(f)
        if out is None:
            out = qe_atom_to_syn(f, fresh)
            memo[f] = out
    elif isinstance(f, Not):
        out = neg(_ref_formula_to_syn(f.arg, fresh, memo))
    elif isinstance(f, (Exists, Forall)):
        out = quant(type(f), f.var, f.sort,
                    _ref_formula_to_syn(f.body, fresh, memo))
    elif isinstance(f, (And, Or)):
        parts = [_ref_formula_to_syn(g, fresh, memo) for g in f.args]
        out = conj(parts) if isinstance(f, And) else disj(parts)
    else:
        out = f
    memo[id(f)] = (f, out)
    return out


def _ref_rewrite_syn_atoms(f, memo=None):
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Atom):
        out = _ref_syn_atom_rewrite(f)
    elif isinstance(f, Not):
        out = neg(_ref_rewrite_syn_atoms(f.arg, memo))
    elif isinstance(f, (Exists, Forall)):
        out = quant(type(f), f.var, f.sort,
                    _ref_rewrite_syn_atoms(f.body, memo))
    elif isinstance(f, (And, Or)):
        parts = [_ref_rewrite_syn_atoms(g, memo) for g in f.args]
        out = conj(parts) if isinstance(f, And) else disj(parts)
    else:
        out = f
    memo[id(f)] = (f, out)
    return out


def _ref_rewrite_aux_terms(f, mapping, memo=None):
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Atom):
        out = replace_aux_terms(f, mapping)
    elif isinstance(f, (Top, Bottom)):
        out = f
    elif isinstance(f, Not):
        out = neg(_ref_rewrite_aux_terms(f.arg, mapping, memo))
    elif isinstance(f, And):
        out = conj(_ref_rewrite_aux_terms(g, mapping, memo) for g in f.args)
    elif isinstance(f, Or):
        out = disj(_ref_rewrite_aux_terms(g, mapping, memo) for g in f.args)
    else:
        out = type(f)(f.var, f.sort,
                      _ref_rewrite_aux_terms(f.body, mapping, memo))
    memo[id(f)] = (f, out)
    return out


def _ref_atoms(f):
    """Atoms in depth-first order, each node visited once by identity."""

    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, Atom):
            yield g
        elif isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.args))
        elif isinstance(g, (Exists, Forall)):
            stack.append(g.body)


def _ref_extract_can_terms(f, fresh):
    can_terms = []
    for a in _ref_atoms(f):
        for t in atom_aux_terms(a):
            _can_subterms(t, can_terms)
    mapping, extracted = {}, []
    for t in can_terms:
        name, sort = fresh("th"), aux_term_sort(t)
        mapping[t] = AuxVar(name, sort)
        extracted.append((name, sort, t))
    g = _ref_rewrite_aux_terms(f, mapping) if mapping else f
    return g, extracted


# The family union builder before its case split went through the
# auxiliary blocks: the atom rule without the folds, and the hoisting that
# Shannon-expanded the main atoms out of every block into an if-then-else,
# at most ten per block, before every unit was split.

def _ref_canc_term(m, t):
    parts = prime_power_parts(m)
    if len(parts) == 1:
        p, r = parts[0]
        return Sc(p, r, t)
    return Sc(m, 1, t)


def _ref_syn_atom_rewrite(a):
    z = LinTerm.zero()
    if isinstance(a, PlainRel):
        anchor = SortMin(sort_ac(2))
        if a.op == "lt":
            return MainRel("lt", a.lhs, a.rhs, 0, anchor)
        return MainRel("cong", a.lhs, a.rhs, 0, anchor, m=a.m)
    if isinstance(a, EqDot):
        e = Se(2, a.t)
        return conj([Discr(e), MainRel("eq", a.t, z, a.k, e)])
    if isinstance(a, CongDot):
        c = _ref_canc_term(a.m, a.t)
        return conj([Discr(c), MainRel("cong", a.t, z, a.k, c, m=a.m)])
    if isinstance(a, DPred):
        c = Sc(a.p, a.r, a.t)
        return conj([
            MainRel("congb", a.t, z, 0, c, m=a.p ** a.r, mp=a.p ** a.s),
            neg(MainRel("cong", a.t, z, 0, c, m=a.p ** a.r)),
        ])
    return a


def _ref_hoist_block(q, body, involves, free):
    if q.sort.is_main:
        return type(q)(q.var, q.sort, body)
    units = [u for u in boolean_units(body)
             if unit_involves_main(u, involves)]
    if not units:
        return type(q)(q.var, q.sort, body)
    for u in units:
        if q.var in free_names(u, free):
            raise OutsideFragment(
                "main-sort atom depends on an auxiliary bound variable; "
                "outside the supported fragment")
    if len(units) > 10:
        raise ResourceLimit("%d main-sort atoms under one auxiliary "
                            "quantifier" % len(units))
    sp = _RefSplitter(units)
    memo = {}

    def expand(g):
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


def _ref_hoist_main_units(f):
    memo, involves, free = {}, {}, {}

    def walk(g):
        if isinstance(g, (Atom, Top, Bottom)):
            return g
        hit = memo.get(g)
        if hit is not None:
            return hit
        if isinstance(g, Not):
            out = neg(walk(g.arg))
        elif isinstance(g, And):
            out = conj(walk(h) for h in g.args)
        elif isinstance(g, Or):
            out = disj(walk(h) for h in g.args)
        else:
            out = _ref_hoist_block(g, walk(g.body), involves, free)
        memo[g] = out
        return out

    return walk(f)


def _ref_syn_qf_to_qe_fuf(f, cap=4096):
    g = _ref_rewrite_syn_atoms(f)
    fresh = Fresh("th", all_names(g))
    g, extracted = _ref_extract_can_terms(g, fresh)
    g = _ref_hoist_main_units(g)
    theta = tuple((name, sort) for name, sort, _ in extracted)
    pins = [_pin_formula(AuxVar(name, sort), term)
            for name, sort, term in extracted]
    clauses, involves = [], {}
    for row in dnf_disjoint_tree(conj(pins + [g]), cap=cap):
        xi = [u if pol else neg(u) for u, pol in row
              if not unit_involves_main(u, involves)]
        psi = tuple((u, pol) for u, pol in row
                    if unit_involves_main(u, involves))
        clauses.append(FUClause(theta, conj(xi), psi))
    return FamilyUnionForm(tuple(clauses))


def _ref_hoist_units(f):
    """The units of the final case split, by a recursive walk of every
    path: main-sort units wherever they sit, through the auxiliary blocks
    that hold one, and other maximal units outside such blocks."""

    out = []

    def involves(g):
        return any(lin_terms(a) for a in atoms_of(g))

    def walk(g, bound):
        if isinstance(g, Not):
            walk(g.arg, bound)
        elif isinstance(g, (And, Or)):
            for h in g.args:
                walk(h, bound)
        elif isinstance(g, (Top, Bottom)):
            return
        elif not involves(g):
            if not bound and g not in out:
                out.append(g)
        elif isinstance(g, (Exists, Forall)) and not g.sort.is_main:
            walk(g.body, bound | {g.var})
        else:
            if bound & set(free_vars(g, {})):
                raise OutsideFragment(
                    "main-sort atom depends on an auxiliary bound variable; "
                    "outside the supported fragment")
            if g not in out:
                out.append(g)

    walk(f, frozenset())
    return out


# The Shannon splitter before its integer node table: every connective is
# a formula node, its record (mask, split, cofactors) is cached by value,
# and each cofactor is rebuilt with the smart constructors.

class _RefSplitter:
    def __init__(self, units, decide=None):
        self._index = {u: i for i, u in enumerate(units)}
        self._decide = -1 if decide is None else sum(
            1 << self._index[u] for u in set(decide))
        self._node = {}
        self._free = None

    def _record(self, g):
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

    def _mentioning(self, var):
        if self._free is None:
            self._free = {}
            cache = {}
            for u, i in self._index.items():
                for v in free_names(u, cache):
                    self._free[v] = self._free.get(v, 0) | 1 << i
        return self._free.get(var, 0)

    def mask(self, g):
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

    def split(self, g):
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

    def cofactor(self, g, i, pol):
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
                out = quant(type(g), g.var, g.sort,
                            self.cofactor(g.body, i, pol))
            cof[i, pol] = out
        return out


def _ref_disjoint_clauses(f, units, cap, decide=None):
    sp = _RefSplitter(units, decide)
    emitted = 0
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


# ---------------------------------------------------------------------------
# Random formulas with shared and equal-but-distinct subformulas

def rand_dag(rng, leaves, steps, quantify=True, raw=True):
    """The last node of a growing pool; with raw false every node is built
    with the smart constructors."""

    pool = list(leaves)

    def pick():
        g = (pool[rng.randint(len(pool) // 2, len(pool) - 1)]
             if rng.random() < 0.7 else rng.choice(pool))
        return copy.deepcopy(g) if rng.random() < 0.3 else g

    for _ in range(steps):
        parts = [pick() for _ in range(rng.choice([1, 2, 2, 3]))]
        c = rng.randint(0, 5)
        if c == 0:
            node = conj(parts)
        elif c == 1:
            node = disj(parts)
        elif c in (2, 3):
            node = ((And if c == 2 else Or)(tuple(parts)) if raw
                    else (conj if c == 2 else disj)(parts))
        else:
            node = (neg if c == 4 or not raw else Not)(parts[0])
        if quantify and rng.random() < 0.1:
            kind = Exists if rng.random() < 0.5 else Forall
            node = (kind("a", sort_ac(2), node) if raw
                    else quant(kind, "a", sort_ac(2), node))
        pool.append(node)
    return pool[-1]


def rand_anchored_atom(rng):
    """An anchored relation whose translation may draw fresh names (an Aep
    anchor, a nonzero offset) or fold to a constant (modulus 1)."""

    eta = rng.choice(AUX_FREE + [BOT, AuxVar("p1", sort_aep(2)),
                                 SuccPlus(Se(2, rand_term(rng, ["u"])))])
    t, w = rand_term(rng, ["x", "y"]), rand_term(rng, ["y", "z"])
    op = rng.choice(["eq", "lt", "cong", "cong1"])
    if op == "cong1":
        return MainRel("cong", t, w, rng.randint(0, 1), eta, m=1)
    if op == "cong":
        return MainRel(op, t, w, rng.randint(-1, 1), eta, m=rng.choice([2, 3]))
    return MainRel(op, t, w, rng.randint(-1, 1), eta)


def rand_can_atom(rng):
    """An atom over canonical-map images of main terms."""

    def can():
        c = rng.randint(0, 2)
        t = rand_term(rng, ["y", "z"], -2, 2)
        if c == 0:
            return Sc(2, rng.randint(1, 2), t)
        if c == 1:
            return Se(2, t)
        return SuccPlus(Se(2, t))

    c = rng.randint(0, 3)
    if c == 0:
        return AuxLe(can(), rng.choice(AUX_FREE + [BOT]))
    if c == 1:
        return Discr(can())
    if c == 2:
        return MainRel("lt", rand_term(rng, ["x"]), rand_term(rng, ["y"]), 0,
                       can())
    return rand_syn_atom(rng)


def _rand_block(rng):
    aux = [Discr(A), AuxLe(A, AUX_FREE[0]), AuxLe(BOT, A)]

    def leaf(r):
        return r.choice(aux) if r.random() < 0.4 else rand_syn_atom(r)

    body = rand_bool(rng, rng.randint(1, 2), leaf)
    return (Exists if rng.random() < 0.5 else Forall)("a", sort_ac(2), body)


def _rand_pinned(rng):
    """An auxiliary block whose variable is pinned to a term, with both
    sides of the pin in either order, or half of it."""

    v = AuxVar("v", sort_ac(2))
    t = rng.choice([Sc(2, 1, rand_term(rng, ["y", "z"])), AUX_FREE[0], BOT])
    rest = [Discr(v), rand_syn_atom(rng), AuxLe(v, AUX_FREE[0])]
    pins = [AuxLe(v, t), AuxLe(t, v)][:rng.choice([1, 2, 2])]
    parts = pins + rng.sample(rest, rng.randint(0, 2))
    rng.shuffle(parts)
    kind = rng.choice([Exists, Exists, Forall])
    return kind("v", sort_ac(2), conj(parts))


def _fresh_pair(taken=("x", "y", "z", "u", "a1", "e1", "p1")):
    return Fresh("b", taken), Fresh("b", taken)


def _state(fresh):
    return fresh._count, fresh._taken


# ---------------------------------------------------------------------------
# Differential tests

def test_anchored_translation_matches_reference():
    rng = random.Random(21)
    for _ in range(150):
        leaves = [rand_anchored_atom(rng) for _ in range(5)]
        f = rand_dag(rng, leaves + [TRUE, FALSE], rng.randint(3, 12))
        f1, f2 = _fresh_pair()
        assert rebuild(f, lambda a: qe_atom_to_syn(a, f1)) == \
            _ref_formula_to_syn(f, f2), f
        assert _state(f1) == _state(f2)


def test_eliminate_exists_main_translation_matches_reference():
    rng = random.Random(22)
    for _ in range(40):
        lits = []
        for _ in range(rng.randint(1, 3)):
            t = LinTerm.var("x", rng.choice([1, 1, 2, -1]))
            w = rand_term(rng, ["y", "z"])
            op = rng.choice(["lt", "eq", "cong"])
            kw = {"m": rng.choice([2, 3])} if op == "cong" else {}
            eta = rng.choice([BOT, AUX_FREE[0]])
            lits.append((MainRel(op, t, w, rng.randint(-1, 1), eta, **kw),
                         rng.random() < 0.8))
        f1, f2 = _fresh_pair()
        got = rebuild(eliminate_exists_main("x", lits, f1),
                      lambda a: qe_atom_to_syn(a, f1))
        want = _ref_formula_to_syn(eliminate_exists_main("x", lits, f2), f2)
        assert got == want, lits
        assert _state(f1) == _state(f2)


def test_extract_can_terms_matches_reference():
    rng = random.Random(23)
    extracted = 0
    for _ in range(150):
        leaves = [rand_can_atom(rng) for _ in range(5)]
        f = rand_dag(rng, leaves, rng.randint(3, 12))
        f1, f2 = _fresh_pair()
        got, want = extract_can_terms(f, f1), _ref_extract_can_terms(f, f2)
        assert got == want, f
        assert _state(f1) == _state(f2)
        extracted += len(got[1])
    assert extracted > 100


def test_syn_qf_to_qe_fuf_matches_reference():
    # against the builder that hoisted the main atoms out of the blocks:
    # the same truth values on the fixture models, and no sample that
    # satisfies two clauses; nested blocks, and a name that is free in one
    # place and bound by a block in another
    rng = random.Random(24)
    done = samples = fewer = 0
    for trial in range(60):
        leaves = ([_rand_block(rng) for _ in range(2)]
                  + [rand_syn_atom(rng) for _ in range(2)]
                  + [rng.choice([Discr(A), AuxLe(A, AUX_FREE[0])])])
        f = rand_dag(rng, leaves, rng.randint(2, 8))
        try:
            want = _ref_syn_qf_to_qe_fuf(f, cap=256)
        except ResourceLimit:
            continue
        got = syn_qf_to_qe_fuf(f, Fresh("th", all_names(f)), cap=256)
        assert got.well_formed() == [], f
        fewer += len(got.clauses) < len(want.clauses)
        done += 1
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        fam_got, fam_want = family_evaluator(model, got), \
            family_evaluator(model, want)
        run = evaluator(model, f)
        for _ in range(4):
            asg = main_assignment(model, rng, ["x", "y", "z"])
            asg.update(aux_assignment(model, rng, AUX_FREE + [A]))
            g, w, e = fam_got(asg), fam_want(asg), run(asg)
            assert g.count(True) <= 1, (f, model, asg)
            if None in g:
                continue
            samples += 1
            if None not in w:
                assert (True in g) == (True in w), (f, model, asg)
            if e is not None:
                assert (True in g) == e, (f, model, asg)
    assert done >= 30 and samples >= 100 and fewer >= 10


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ResourceLimit, ValueError) as e:
        return type(e), str(e)


def test_hoist_main_units_matches_reference():
    rng = random.Random(25)
    raised = 0
    for _ in range(120):
        at_a = MainRel("lt", rand_term(rng, ["x"]), rand_term(rng, ["y"]), 0,
                       A)
        leaves = ([_rand_block(rng) for _ in range(3)]
                  + [rand_syn_atom(rng) for _ in range(2)]
                  + [rng.choice([Discr(A), at_a])])
        f = rand_dag(rng, leaves, rng.randint(2, 8))
        got = _outcome(hoist_main_units, f)
        assert got == _outcome(_ref_hoist_units, f), f
        raised += isinstance(got, tuple)
    assert 5 <= raised <= 100


def _leaves(gen):
    """The leaves that a generator of `disjoint_clauses` yields, and how it
    ended: None, or the limit it raised."""

    out = []
    try:
        for leaf in gen:
            out.append(leaf)
    except ResourceLimit as e:
        return out, str(e)
    return out, None


def _split_cases(rng, f):
    """(units, decide) pairs for the splitter on f: no units (the splitter
    lists them), every boolean unit, the units of the final case split
    with all or the main-sort ones to decide, a random subset to decide and
    a random shuffled sublist of units."""

    bu = boolean_units(f)
    cases = [(None, None), (bu, None)]
    try:
        hoisted = hoist_main_units(f)
    except ValueError:
        hoisted = None
    if hoisted is not None:
        involves = {}
        main = {u for u in hoisted if unit_involves_main(u, involves)}
        cases += [(hoisted, None), (hoisted, main)]
    for units in (bu, hoisted):
        if units:
            cases.append((units, set(rng.sample(
                units, rng.randint(0, len(units))))))
            cases.append((rng.sample(units, rng.randint(1, len(units))),
                          None))
    return cases


def _rand_split_formula(rng):
    """A random DAG in smart-constructor form, as the splitter requires,
    over blocks that hold main atoms, nested blocks, an atom that mentions
    a block's variable and an opaque main quantifier."""

    mq = Exists("x", SORT_G, conj([rand_syn_atom(rng), Discr(A)]))
    leaves = ([_rand_block(rng) for _ in range(2)]
              + [rand_syn_atom(rng) for _ in range(2)]
              + [rng.choice([Discr(A), AuxLe(A, AUX_FREE[0])]), mq])
    return rand_dag(rng, leaves, rng.randint(2, 9), raw=False)


def _decided_once(leaves):
    """The reference's leaves with each unit decided once per branch: a
    repeated literal removed, and a leaf that carries a unit and its
    negation dropped."""

    out = []
    for lits, rest in leaves:
        seen: dict = {}
        for u, pol in lits:
            if seen.setdefault(u, pol) != pol:
                break
        else:
            out.append((list(seen.items()), rest))
    return out


def test_disjoint_clauses_matches_reference():
    # the integer node table against the splitter that cached formula
    # nodes, which may decide a unit twice on one branch: the same leaves,
    # each unit decided once, in the same order, and the cap raised after
    # the cap-th of them, for every cap from 0 up to the leaf count.  Each
    # random f comes also inside a block beside the block E a. discr(a),
    # which a cofactor of the first block can turn into
    rng = random.Random(29)
    blk = quant(Exists, "a", sort_ac(2), Discr(A))
    checked = capped = repeated = 0
    for _ in range(150):
        f = _rand_split_formula(rng)
        for g in (f, conj([blk, quant(Exists, "a", sort_ac(2),
                                      conj([Discr(A), f]))])):
            for units, decide in _split_cases(rng, g):
                ref_units = boolean_units(g) if units is None else units
                ref, end = _leaves(_ref_disjoint_clauses(
                    g, ref_units, 10 ** 6, decide))
                assert end is None
                want = _decided_once(ref)
                repeated += want != ref
                if units is None:
                    assert ShannonSplitter(g).units == ref_units, g
                for cap in range(len(want) + 1):
                    got = _leaves(disjoint_clauses(g, units, cap, decide))
                    assert got[0] == want[:cap], (g, units, decide, cap)
                    assert (got[1] is None) == (cap == len(want))
                    capped += got[1] is not None
                checked += 1
    assert checked >= 1600 and capped >= 2000 and repeated >= 20


def test_splitter_table_folds_as_syntax_builds():
    # every connective of the table, entered or built by a cofactor, has
    # the formula that conj, disj, neg or quant give its children's
    # formulas, and entering that formula again gives the same node, so
    # equal formulas never get two nodes
    rng = random.Random(30)
    built = 0
    for _ in range(80):
        f = _rand_split_formula(rng)
        for units, decide in _split_cases(rng, f):
            sp = ShannonSplitter(f, units, decide)
            entered = len(sp._kind)
            # split every node that the decision tree reaches
            stack, seen = [sp.root], set()
            while stack:
                n = stack.pop()
                if n not in seen:
                    seen.add(n)
                    stack.extend(sp.split(n)[1:])
            for n in range(2, len(sp._kind)):
                kind, args = sp._kind[n], sp._args[n]
                if kind is None:
                    continue
                if kind in (And, Or):
                    parts = [sp.formula(a) for a in args]
                    want = conj(parts) if kind is And else disj(parts)
                elif kind is Not:
                    want = neg(sp.formula(args[0]))
                else:
                    want = quant(kind, args[1], args[2],
                                 sp.formula(args[0]))
                assert sp.formula(n) == want, (f, n)
                assert sp.node(want) == n, (f, n)
                built += n >= entered
    assert built >= 500


def test_free_names_equals_free_vars():
    rng = random.Random(27)
    cache = {}
    for _ in range(100):
        # the same atoms occur under a binder of their variables and free
        atoms = [rand_anchored_atom(rng) for _ in range(3)]
        leaves = atoms + [_rand_pinned(rng), Exists("x", SORT_G, atoms[0]),
                          Forall("y", SORT_G, atoms[1])]
        f = rand_dag(rng, leaves, rng.randint(2, 8))
        assert free_names(f, {}) == frozenset(free_vars(f, {})), f
        # a cache kept across formulas gives the same answers
        assert free_names(f, cache) == frozenset(free_vars(f, {})), f


def test_unit_involves_main_matches_atom_walk(monkeypatch):
    # the structural walk through one memo against the walk over every atom
    # it replaced; each distinct subformula is examined once per memo
    normal = importlib.import_module("oagqe.normal")
    rng = random.Random(28)
    aux = [Discr(A), AuxLe(A, AUX_FREE[0]), AuxLe(BOT, A), TRUE]
    for _ in range(60):
        leaves = ([_rand_block(rng) for _ in range(2)] + aux
                  + [rand_syn_atom(rng), Exists("x", SORT_G, Discr(A))])
        f = rand_dag(rng, leaves, rng.randint(2, 8))
        seen = []
        monkeypatch.setattr(normal, "atom_involves_main",
                            lambda a: seen.append(a) or bool(
                                lin_terms(a)))
        memo = {}
        for g in subformulas(f):
            want = any(bool(lin_terms(a)) for a in atoms_of(g))
            assert unit_involves_main(g, memo) is want, g
        assert len(seen) == len(set(seen)), f


def test_rebuild_visits_every_atom_once():
    # arguments are rebuilt before the connective folds, so an atom after
    # an absorbing constant is still seen; equal atoms are seen once
    a = PlainRel("lt", LinTerm.var("x"), LinTerm.zero())
    b = PlainRel("lt", LinTerm.var("y"), LinTerm.zero())
    seen = []

    def on_atom(g):
        seen.append(g)
        return FALSE if g == a else g

    f = And((a, Or((b, copy.deepcopy(a))), copy.deepcopy(b)))
    assert rebuild(f, on_atom) is FALSE
    assert seen == [a, b]


def test_hoist_expands_blocks_after_a_false_sibling():
    # the units of every block are lifted, also after a sibling that folds
    # to false, so a bound dependence raises whatever the order of the
    # arguments
    u = PlainRel("lt", LinTerm.var("y"), LinTerm.zero())
    dead = Exists("a", sort_ac(2), And((u, Not(u))))
    assert hoist_main_units(dead) == [u]
    assert syn_qf_to_qe_fuf(dead, Fresh("th")).clauses == ()
    bound = Exists("a", sort_ac(2), conj(
        [Discr(A), MainRel("lt", LinTerm.var("y"), LinTerm.zero(), 0, A)]))
    for f in (And((dead, bound)), And((bound, dead))):
        with pytest.raises(ValueError):
            hoist_main_units(f)
