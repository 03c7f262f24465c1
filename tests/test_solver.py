"""The witness search on int coordinates over Z against the Fraction search
it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURE_MODELS, MIXED_RANK5, SUM_MODEL, aux_assignment,
    main_assignment, rand_bool, rand_mixed_atom,
)
from oagqe import solver
from oagqe.evaluate import (
    Uncompilable, compile_clause, dnf_clauses, evaluate, ground_for_var,
)
from oagqe.models import IntComp, RatComp, comp_contains, comp_divisible
from oagqe.normal import ResourceLimit
from oagqe.solver import (
    _ALLOWED, _FINAL_OK, Clause, SumCong, _ints_window, clause_modulus,
)
from test_models import _assert_coords

SOLVER_MODELS = FIXTURE_MODELS + [MIXED_RANK5, SUM_MODEL]


# ---------------------------------------------------------------------------
# Reference: the search as it was, with every coordinate a Fraction

def _ref_candidates(comp, region, check, L, want_all):
    kind, *bounds = region
    if kind == "pt":
        (b,) = bounds
        if comp_contains(comp, b) and check(b):
            return [b]
        return []
    lo, hi = bounds
    if isinstance(comp, IntComp):
        out = []
        for n in _ints_window(lo, hi, L):
            v = Fraction(n)
            if check(v):
                if not want_all:
                    return [v]
                out.append(v)
        return out
    if isinstance(comp, RatComp):
        if lo is None and hi is None:
            v = Fraction(0)
        elif lo is None:
            v = hi - 1
        elif hi is None:
            v = lo + 1
        else:
            v = (lo + hi) / 2
        return [v] if check(v) else []
    ml, t = comp.m, 0
    while True:
        scale = ml ** t
        slo = None if lo is None else lo * scale
        shi = None if hi is None else hi * scale
        full = slo is None or shi is None or shi - slo > L + 1
        for n in _ints_window(slo, shi, L):
            if check(Fraction(n, scale)):
                return [Fraction(n, scale)]
        if full:
            return []
        t += 1
        if t > 64:
            raise solver.SolverLimit("grid refinement runaway")


class _RefSearch:
    def __init__(self, model, cl, budget=200_000):
        self.model, self.cl, self.budget = model, cl, budget
        self.L = clause_modulus(model, cl)
        self.nodes = 0
        self.want_all = model.sum_mod is not None

    def run(self):
        undecided = []
        for i, rec in enumerate(self.cl.lex):
            if rec.cut >= self.model.rank:
                if not _FINAL_OK[rec.rel]:
                    return None
            else:
                undecided.append(i)
        coords = [Fraction(0)] * self.model.rank
        return self._dfs(self.model.rank - 1, frozenset(undecided), coords)

    def _dfs(self, j, undecided, coords):
        self.nodes += 1
        if self.nodes > self.budget:
            raise solver.SolverLimit("search budget exceeded")
        model, cl = self.model, self.cl
        if j < 0:
            return self._check_sums(coords)
        live = [i for i in undecided if cl.lex[i].cut <= j]
        bps = sorted({-Fraction(cl.lex[i].u[j], 1) / cl.lex[i].r
                      for i in live})
        regions = []
        if not bps:
            regions.append(("iv", None, None))
        else:
            regions.append(("iv", None, bps[0]))
            for a, b in zip(bps, bps[1:]):
                regions.append(("pt", a))
                regions.append(("iv", a, b))
            regions.append(("pt", bps[-1]))
            regions.append(("iv", bps[-1], None))
        pos = [d for d in cl.div if d.cut <= j and d.m > 1] + list(cl.sums)
        negs = [d for d in cl.ndiv if d.coord == j]
        comp = model.comps[j]

        def check(v):
            return (all(comp_divisible(comp, d.r * v + d.u[j], d.m)
                        for d in pos)
                    and not any(comp_divisible(comp, d.r * v + d.u[j], d.m)
                                for d in negs))

        for region in regions:
            for v in _ref_candidates(comp, region, check, self.L,
                                     self.want_all):
                nxt = self._step(j, v, live, undecided)
                if nxt is None:
                    continue
                coords[j] = v
                res = self._dfs(j - 1, nxt, coords)
                if res is not None:
                    return res
                coords[j] = Fraction(0)
        return None

    def _step(self, j, v, live, undecided):
        out = set(undecided)
        for i in live:
            rec = self.cl.lex[i]
            w = rec.r * v + rec.u[j]
            if w == 0:
                continue
            neg_ok, pos_ok = _ALLOWED[rec.rel]
            if (w < 0 and not neg_ok) or (w > 0 and not pos_ok):
                return None
            out.discard(i)
        for i in list(out):
            rec = self.cl.lex[i]
            if rec.cut == j:
                if not _FINAL_OK[rec.rel]:
                    return None
                out.discard(i)
        return frozenset(out)

    def _check_sums(self, coords):
        for s in self.cl.sums:
            total = Fraction(0)
            for i in range(self.model.rank):
                q = (s.r * coords[i] + s.u[i]) / s.m
                if q.denominator != 1:
                    raise AssertionError("sum record without divisibility")
                total += q
            if (total % self.model.sum_mod == 0) == s.negate:
                return None
        return tuple(coords)


# ---------------------------------------------------------------------------
# Differential on clauses from compile_clause

def _clauses(model, rng):
    """(assignment, body, clauses) for a random body over x, y, z grounded
    for x, or None when the body cannot be grounded."""

    asg = main_assignment(model, rng, ["y", "z"])
    asg.update(aux_assignment(model, rng) or {})
    body = rand_bool(rng, rng.randint(0, 3), rand_mixed_atom)
    try:
        g = ground_for_var(model, asg, "x", body)
        lits = [ls for ls, _ in dnf_clauses(g)]
    except (Uncompilable, ResourceLimit):
        return None
    return asg, body, [cl for ls in lits
                       for cl in compile_clause(model, asg, "x", ls)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_int_search_matches_fraction_search(seed):
    rng = random.Random(seed)
    for model in SOLVER_MODELS:
        got = _clauses(model, rng)
        if got is None:
            continue
        asg, body, clauses = got
        for cl in clauses:
            want = _RefSearch(model, cl).run()
            w = solver.solve_clause(model, cl)
            # the same regions and candidates in the same order: the same
            # witness, with int coordinates on Z
            assert w == want, (model, cl)
            if w is not None:
                _assert_coords(model, w)
                assert evaluate(model, dict(asg, x=w), body) is True


def test_witness_coordinates_follow_the_components():
    rng = random.Random(5)
    seen = {id(m): 0 for m in SOLVER_MODELS}
    for _ in range(40):
        for model in SOLVER_MODELS:
            got = _clauses(model, rng)
            if got is None:
                continue
            for cl in got[2]:
                w = solver.solve_clause(model, cl)
                if w is not None:
                    _assert_coords(model, w)
                    seen[id(model)] += 1
    assert all(seen.values()), seen


def test_breakpoints_are_ints_only_where_integral():
    z, q = IntComp(), RatComp()
    assert type(solver._breakpoint(z, 2, -6)) is int
    assert solver._breakpoint(z, -2, 6) == 3
    assert solver._breakpoint(z, 2, 3) == Fraction(-3, 2)
    assert type(solver._breakpoint(q, 2, Fraction(-6))) is Fraction


def test_check_sums_raises_on_a_non_divisible_sum_record():
    zero = SUM_MODEL.zero()
    cl = Clause(lex=[], div=[], ndiv=[], sums=[SumCong(2, 1, zero, False)])
    search = solver._Search(SUM_MODEL, cl, 100)
    with pytest.raises(AssertionError):
        search._check_sums([1, 0, 0])
    # quotients 2, 0, 0: sum 2, divisible by the sum modulus 2
    e = search._check_sums([4, 0, 0])
    assert e == (4, 0, 0) and all(type(v) is int for v in e)
    assert search._check_sums([2, 0, 0]) is None
    # exact beyond float precision: the quotient 2**59 + 1 is odd
    assert search._check_sums([2 ** 60 + 2, 0, 0]) is None
    # the witness of a clause with a sum record is an int tuple
    w = solver.solve_clause(SUM_MODEL, cl)
    assert w is not None and all(v % 2 == 0 for v in w)
    assert sum(v // 2 for v in w) % 2 == 0
    _assert_coords(SUM_MODEL, w)

