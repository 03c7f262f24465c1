"""The four workloads: input generators and one operation each.

Inputs are generated from the seed and reach the program as text: formulas
as s-expressions read with parse_formula, models as model-file text read
with parse_model.  Each operation makes the calls the matching `oagqe`
subcommand makes, times them in process CPU time, and checks the answer.

Why these four:
- qe-mixed: elimination of random mixed formulas (the generator of the
  random end-to-end acceptance test).  Elimination time is mostly translate
  and normal (hoist_main_units); about 44% of inputs end in ResourceLimit,
  and those took 225.6 s of 231.4 s when the acceptance generator was
  profiled.  Checking uses evaluator and family_evaluator with warm memos.
- qe-congruence: Presburger conjunctions over Z.  Runs the eliminate coset
  machinery and produces wide outputs; dnf_disjoint_tree took 77% of the
  profile and hoist_main_units almost nothing, so a normal change that
  helps one qe workload and not the other shows.
- eval-ground: one-shot evaluate of main-quantified formulas, no
  elimination: grounding, clause compilation, solver and model membership.
  Changes to normal or eliminate should show no change here.
- piecewise: decompose and verify_decomposition of graph formulas, the only
  workload that reaches the piecewise layer; it calls evaluate once per
  grid point on a freshly renamed formula.
"""

import json
import math
import random
import signal
import time
from collections import Counter

import oracles

# Model-file text of the seven fixture models used by every differential
# check, the rank-five mixed model and the sum-constrained Z^3 model.
FIXTURE_MODELS = ["Z", "Q", "Z\nZ", "Z\nQ", "Z\nZ[1/2]", "Z\nZ[1/5]",
                  "Z\nQ\nZ"]
EXTRA_MODELS = ["Z\nQ\nZ\nQ\nZ", "Z\nZ\nZ\nsum 2"]
Z_MODEL = "Z"

CORPUS_SEED = 11           # the random end-to-end acceptance test's seed
VERDICT_DEADLINE_S = 1.0   # CPU seconds one verdict may take
SAMPLE_DEADLINE_S = 0.5    # CPU seconds one check sample may take


class Deadline(BaseException):
    """A benchmark deadline expired inside the program.  Derived from
    BaseException so that no handler in the program can swallow it."""


def _expire(signum, frame):
    raise Deadline()


class guard:
    """Raise Deadline in the block once it has used the given CPU time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGPROF, _expire)
        signal.setitimer(signal.ITIMER_PROF, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)


# CPU time of the benchmark's only thread.  The process CPU clock is not
# used: while the deadline's interval timer is armed the kernel updates it
# only once per scheduler tick.
cpu_clock = time.thread_time


class Clock:
    """CPU and wall time of a block, also when it raises."""

    def __enter__(self):
        self.c0, self.w0 = cpu_clock(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = cpu_clock() - self.c0
        self.wall = time.perf_counter() - self.w0


class Recorder:
    """Everything one run measures, and the per-operation counts that the
    determinism check compares."""

    def __init__(self):
        self.ops = []          # (outcome, cpu s, wall s)
        self.reference = []    # CPU s of each reference sample
        self.outcomes = Counter()
        self.op_counts = []    # per operation: comparable counts
        self.wrong = 0
        self.double = 0        # samples satisfying two or more clauses
        self.clauses = 0
        self.samples = 0       # check samples, both sides evaluated
        self.check_cpu = 0.0
        self.sample_deadlines = 0
        self.evals = 0         # evaluations attempted (unknown_share base)
        self.unknown = 0
        self.oracle_skipped = 0

    def merge(self, other):
        for k, v in vars(other).items():
            if isinstance(v, list):
                getattr(self, k).extend(v)
            elif isinstance(v, Counter):
                getattr(self, k).update(v)
            else:
                setattr(self, k, getattr(self, k) + v)

    def late_samples(self, unknown, late):
        """Count one operation's check samples that answered unknown or
        were cut by their deadline; both count as unknown."""

        self.unknown += unknown + late
        self.sample_deadlines += late

    def op(self, outcome, clock, **counts):
        self.ops.append((outcome, clock.cpu, clock.wall))
        self.outcomes[outcome] += 1
        self.op_counts.append(dict(counts, outcome=outcome))


def reject_reason(msg):
    if "clause cap" in msg:
        return "clause_cap"
    if "main-sort atoms" in msg or "boolean units" in msg:
        return "atom_cap"
    if "branch budget" in msg:
        return "branch_budget"
    if "dimension target" in msg:
        return "dim_cap"
    return "other"


# ---------------------------------------------------------------------------
# Random formula material (the benchmark's own copy of the generators of the
# acceptance suite)
#
# The formulas of qe-mixed, qe-congruence and eval-ground come from a fixed
# corpus stream, the same for every seed; --seed draws everything else: the
# assignments at which answers are checked and evaluated, and the piecewise
# coefficients.  One formula can take 0.2 ms or hit the deadline, and a run
# gets through about 140 qe-mixed verdicts, so formula sets drawn per seed
# moved the per-run statistics by 10-30% from seed to seed.

def _rand_term(S, rng, vs, lo=-3, hi=3):
    return S.LinTerm.make({v: rng.randint(lo, hi)
                           for v in rng.sample(vs, rng.randint(1, min(2, len(vs))))})


def _rand_mixed_atom(S, rng):
    aux_free = [S.AuxVar("a1", S.sort_ac(2)), S.AuxVar("e1", S.sort_ae(2))]
    t = _rand_term(S, rng, ["x", "y", "z"])
    c = rng.randint(0, 5)
    if c == 0:
        return S.PlainRel("lt", t, _rand_term(S, rng, ["y", "z"]))
    if c == 1:
        return S.PlainRel("cong", t, _rand_term(S, rng, ["y", "z"]),
                          m=rng.choice([2, 3, 4]))
    if c == 2:
        return S.EqDot(rng.choice([-2, -1, 1, 2]), t)
    if c == 3:
        return S.CongDot(rng.choice([2, 3]), 1, t)
    anchor = rng.choice(aux_free + [S.SortMin(S.sort_ac(2))])
    if c == 4:
        return S.MainRel("lt", t, _rand_term(S, rng, ["y", "z"]),
                         rng.randint(-1, 1), anchor)
    return S.MainRel("cong", t, _rand_term(S, rng, ["y", "z"]),
                     rng.randint(0, 1), anchor, m=rng.choice([2, 3]))


def _rand_bool(S, rng, depth):
    if depth == 0:
        return _rand_mixed_atom(S, rng)
    c = rng.randint(0, 2)
    if c == 0:
        return S.neg(_rand_bool(S, rng, depth - 1))
    parts = [_rand_bool(S, rng, depth - 1) for _ in range(2)]
    return S.conj(parts) if c == 1 else S.disj(parts)


def _main_quantified(S, rng, max_depth):
    body = _rand_bool(S, rng, rng.randint(1, max_depth))
    kind = S.Exists if rng.random() < 0.6 else S.Forall
    return kind, body


def _sample_assignment(api, model, rng, names=("y", "z")):
    asg = {v: api.sample_element(model, rng, 6, (1, 2, 3)) for v in names}
    S = api.mod["syntax"]
    for name, sort in (("a1", S.sort_ac(2)), ("e1", S.sort_ae(2))):
        asg[name] = rng.choice(api.spine(model, sort))
    return asg


def _declare_aux(api, f):
    """The formula with its free auxiliary variables given their sorts.

    The s-expression syntax has no way to declare the sort of a free
    auxiliary variable: parse_formula leaves it unknown, and elimination
    then stops with "anchor sort unknown".  The generators use exactly two,
    a1 of sort Ac(2) and e1 of sort Ae(2)."""

    S = api.mod["syntax"]
    return S.substitute(f, {"a1": S.AuxVar("a1", S.sort_ac(2)),
                            "e1": S.AuxVar("e1", S.sort_ae(2))})


def _family_truth(vals):
    if any(v is True for v in vals):
        return True
    if all(v is False for v in vals):
        return False
    return None


def _print_json(api, fuf):
    """The output of `oagqe eliminate --json`."""

    doc = {"schema": 1, "clauses": []}
    for cl in fuf.clauses:
        doc["clauses"].append({
            "params": [[n, api.print_sort(s)] for n, s in cl.theta],
            "guard": api.print_formula(cl.xi),
            "literals": [[api.print_formula(a), pol] for a, pol in cl.psi],
        })
    return json.dumps(doc, indent=2, sort_keys=True)


def _eliminate(api, rec, text, cap, max_branches):
    """parse, qe_driver and --json printing under the verdict deadline.
    Returns (outcome, formula, family union form, clock)."""

    f = fuf = None
    with Clock() as clk:
        try:
            with guard(VERDICT_DEADLINE_S):
                f = _declare_aux(api, api.parse_formula(text))
                fuf = api.qe_driver(f, cap=cap, max_branches=max_branches)
                _print_json(api, fuf)
            problems = fuf.well_formed()
            outcome = "ok"
            if problems:
                outcome = "wrong"
                rec.wrong += 1
        except api.ResourceLimit as e:
            outcome = "rejected:" + reject_reason(str(e))
        except Deadline:
            outcome = "rejected:deadline"
    return outcome, f, fuf, clk


# ---------------------------------------------------------------------------
# qe-mixed

class QeMixed:
    name = "qe-mixed"
    cap, max_branches = 128, 2000
    samples = 20

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.models = [api.parse_model(t) for t in FIXTURE_MODELS]

    def inputs(self):
        api, S = self.api, self.api.mod["syntax"]
        rng = random.Random(CORPUS_SEED)
        i = 0
        while True:
            kind, body = _main_quantified(S, rng, 2)
            yield i, api.print_formula(kind("x", S.SORT_G, body))
            i += 1

    def run(self, rec, item):
        api = self.api
        i, text = item
        outcome, f, fuf, clk = _eliminate(api, rec, text, self.cap,
                                          self.max_branches)
        unknown = late = 0
        if outcome == "ok":
            rec.clauses += len(fuf.clauses)
            model = self.models[i % len(self.models)]
            rng = random.Random(self.seed * 1000003 + i)
            with Clock() as check:
                fam = api.family_evaluator(model, fuf)
                in_ev = api.evaluator(model, f)
                for _ in range(self.samples):
                    asg = _sample_assignment(api, model, rng)
                    rec.evals += 1
                    try:
                        with guard(SAMPLE_DEADLINE_S):
                            r1 = in_ev(asg)
                            vals = fam(asg)
                    except Deadline:
                        late += 1
                        continue
                    rec.samples += 1
                    sat = sum(1 for v in vals if v is True)
                    if sat > 1:
                        rec.double += 1
                        rec.wrong += 1
                    r2 = _family_truth(vals)
                    if r1 is None or r2 is None:
                        unknown += 1
                    elif r1 != r2:
                        rec.wrong += 1
            rec.check_cpu += check.cpu
            rec.late_samples(unknown, late)
        rec.op(outcome, clk, clauses=len(fuf.clauses) if fuf else 0,
               unknown=unknown, late=late)


# ---------------------------------------------------------------------------
# qe-congruence

_MODULI = [2, 2, 2, 3, 3, 4, 4, 5, 6, 6, 8, 9, 10, 12, 7, 11]
_COEFFS = [1, 1, 1, 2, 2, 3, -1, -1, -2, -3, 4, 5, -4, -5]


def _rand_presburger_literal(rng):
    """(op, lhs, rhs, modulus, polarity) with lhs and rhs as variable ->
    coefficient maps; zero coefficients dropped."""

    lhs = {"x": rng.choice(_COEFFS),
           rng.choice(["y", "z"]): rng.choice(_COEFFS + [0])}
    rhs = {rng.choice(["y", "z"]): rng.choice(_COEFFS)}
    if rng.random() < 0.5:
        op, m = "lt", None
    else:
        op, m = "cong", rng.choice(_MODULI)
    return op, {v: c for v, c in lhs.items() if c}, rhs, m, rng.random() < 0.7


def lin_text(coeffs):
    parts = [v if c == 1 else "(* %d %s)" % (c, v)
             for v, c in sorted(coeffs.items()) if c]
    if not parts:
        return "0"
    return parts[0] if len(parts) == 1 else "(+ %s)" % " ".join(parts)


def _literal_text(lit):
    op, lhs, rhs, m, pol = lit
    if op == "lt":
        a = "(plainlt %s %s)" % (lin_text(lhs), lin_text(rhs))
    else:
        a = "(plaincong %d %s %s)" % (m, lin_text(lhs), lin_text(rhs))
    return a if pol else "(not %s)" % a


def _accept_congruence(lits):
    """The acceptance suite's filters: bounded period, and scaled moduli
    after coefficient normalization at most 120."""

    if oracles.congruence_period(lits) > 360:
        return False
    lc = 1
    for _, lhs, _, _, _ in lits:
        cx = abs(lhs["x"])
        lc = lc * cx // math.gcd(lc, cx)
    return not any(op == "cong" and m * lc // abs(lhs["x"]) > 120
                   for op, lhs, _, m, _ in lits)


class QeCongruence:
    name = "qe-congruence"
    cap, max_branches = 512, 1500
    samples = 2

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.model = api.parse_model(Z_MODEL)

    def inputs(self):
        rng = random.Random(CORPUS_SEED)
        i = 0
        while True:
            lits = [_rand_presburger_literal(rng)
                    for _ in range(rng.randint(1, 4))]
            if not _accept_congruence(lits):
                continue
            text = "(E x G (and %s))" % " ".join(map(_literal_text, lits))
            yield i, text, lits
            i += 1

    def run(self, rec, item):
        api = self.api
        i, text, lits = item
        outcome, f, fuf, clk = _eliminate(api, rec, text, self.cap,
                                          self.max_branches)
        unknown = late = 0
        if outcome == "ok":
            rec.clauses += len(fuf.clauses)
            rng = random.Random(self.seed * 1000003 + i)
            model = self.model
            with Clock() as check:
                fam = api.family_evaluator(model, fuf)
                for _ in range(self.samples):
                    y, z = rng.randint(-9, 9), rng.randint(-9, 9)
                    rec.evals += 1
                    try:
                        with guard(SAMPLE_DEADLINE_S):
                            vals = fam({"y": model.element([y]),
                                        "z": model.element([z])})
                    except Deadline:
                        late += 1
                        continue
                    rec.samples += 1
                    if sum(1 for v in vals if v is True) > 1:
                        rec.double += 1
                        rec.wrong += 1
                    got = _family_truth(vals)
                    if got is None:
                        unknown += 1
                    elif got != oracles.exists_x(lits, y, z):
                        rec.wrong += 1
            rec.check_cpu += check.cpu
            rec.late_samples(unknown, late)
        rec.op(outcome, clk, clauses=len(fuf.clauses) if fuf else 0,
               unknown=unknown, late=late)


# ---------------------------------------------------------------------------
# eval-ground

class EvalGround:
    name = "eval-ground"
    assignments = 3        # evaluate calls per formula
    instance_checks = 2    # sampled instances per call

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.models = [api.parse_model(t)
                       for t in FIXTURE_MODELS + EXTRA_MODELS]

    def inputs(self):
        api, S = self.api, self.api.mod["syntax"]
        rng = random.Random(CORPUS_SEED)
        i = 0
        while True:
            kind, body = _main_quantified(S, rng, 3)
            nested = rng.random() < 0.1
            if nested:
                body = S.conj([body, S.Forall("z", S.SORT_G,
                                              _rand_bool(S, rng, 1))])
            yield i, api.print_formula(kind("x", S.SORT_G, body)), nested
            i += 1

    def run(self, rec, item):
        api = self.api
        i, text, nested = item
        model = self.models[i % len(self.models)]
        rng = random.Random(self.seed * 1000003 + i)
        f = _declare_aux(api, api.parse_formula(text))
        for _ in range(self.assignments):
            asg = _sample_assignment(api, model, rng)
            rec.evals += 1
            with Clock() as clk:
                try:
                    with guard(VERDICT_DEADLINE_S):
                        r = api.evaluate(model, asg, f)
                    outcome = "ok" if r is not None else "unknown"
                except Deadline:
                    r, outcome = None, "rejected:deadline"
            if r is None:
                rec.unknown += 1
            elif not nested:
                with Clock() as check:
                    self._check(rec, model, asg, f, r, rng)
                rec.check_cpu += check.cpu
            rec.op(outcome, clk, unknown=int(r is None))

    def _check(self, rec, model, asg, f, r, rng):
        """Differential against direct evaluation of instances: a witness
        of the body refutes a False answer to E x, a counterexample
        refutes a True answer to A x."""

        api, S = self.api, self.api.mod["syntax"]
        exists = isinstance(f, S.Exists)
        for _ in range(self.instance_checks):
            asg2 = dict(asg)
            asg2[f.var] = api.sample_element(model, rng, 6, (1, 2, 3))
            v = api.evaluate(model, asg2, f.body)
            rec.samples += 1
            if v is None:
                continue
            if exists and v and r is False:
                rec.wrong += 1
            if not exists and not v and r is True:
                rec.wrong += 1


# ---------------------------------------------------------------------------
# piecewise

# (kind, arity, number of terms) cycled in order, so every seed gets the
# same mix of shapes; the seed draws coefficients and offsets.
_SHAPES = [("floor", 1, 0), ("max", 2, 2), ("floor", 2, 0), ("min", 1, 2),
           ("half", 1, 0), ("max", 1, 3), ("biggest", 2, 0), ("min", 2, 2),
           ("floor", 3, 0), ("max", 3, 2)]
# Grid radii per arity, for the functionality check inside decompose and for
# verify_decomposition: the point count grows as (2r+1)^arity.
_CHECK_BOX = {1: 4, 2: 2, 3: 1}
_VERIFY_BOX = {1: 8, 2: 4, 3: 2}
_ARGS = {1: ["x"], 2: ["x1", "x2"], 3: ["x1", "x2", "x3"]}


def _nonzero_map(rng, args, lo, hi):
    while True:
        c = {a: rng.randint(lo, hi) for a in args}
        if any(c.values()):
            return c


def _graph(rng, kind, arity, nterms):
    args = _ARGS[arity]
    if kind == "half":
        return {"kind": "floor", "args": args, "coeffs": {"x": 1}, "b": 0,
                "k": 2}
    if kind == "biggest":
        return {"kind": "max", "args": args,
                "terms": [({"x1": 1}, 0), ({"x2": 1}, 0)]}
    if kind == "floor":
        return {"kind": "floor", "args": args,
                "coeffs": _nonzero_map(rng, args, -3, 3),
                "b": rng.randint(-3, 3), "k": rng.choice([2, 3, 4])}
    return {"kind": kind, "args": args,
            "terms": [(_nonzero_map(rng, args, -2, 2), rng.randint(-2, 2))
                      for _ in range(nterms)]}


def graph_text(g):
    """y = g(args) as a formula over bottom-anchored relations."""

    def lt(a, b, k):           # a < b + k
        return "(lt c2min %s %s %d)" % (lin_text(a), lin_text(b), k)

    if g["kind"] == "floor":
        # k*y <= L + b < k*y + k
        L, b, k = g["coeffs"], g["b"], g["k"]
        ky = {"y": k}
        return "(and (not %s) %s)" % (lt(L, ky, -b), lt(L, ky, k - b))
    terms = g["terms"]
    clauses = []
    for j, (cj, dj) in enumerate(terms):
        lits = ["(eq c2min y %s %d)" % (lin_text(cj), dj)]
        for l, (cl, dl) in enumerate(terms):
            if l == j:
                continue
            # the first term reaching the extreme is the one chosen
            if g["kind"] == "max":
                lits.append(lt(cl, cj, dj - dl) if l < j
                            else "(not %s)" % lt(cj, cl, dl - dj))
            else:
                lits.append(lt(cj, cl, dl - dj) if l < j
                            else "(not %s)" % lt(cl, cj, dj - dl))
        clauses.append("(and %s)" % " ".join(lits))
    return "(or %s)" % " ".join(clauses)


class Piecewise:
    name = "piecewise"

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.model = api.parse_model(Z_MODEL)

    def inputs(self):
        rng = random.Random(self.seed)
        i = 0
        while True:
            kind, arity, nterms = _SHAPES[i % len(_SHAPES)]
            g = _graph(rng, kind, arity, nterms)
            yield i, graph_text(g), g
            i += 1

    def run(self, rec, item):
        api = self.api
        i, text, g = item
        arity = len(g["args"])
        box = _VERIFY_BOX[arity]
        ps = None
        with Clock() as clk:
            try:
                with guard(VERDICT_DEADLINE_S):
                    f = api.parse_formula(text)
                    ps = api.decompose(self.model, f, "y", g["args"],
                                       check_box=_CHECK_BOX[arity])
                    report = api.verify_decomposition(self.model, f, ps, box)
                outcome = "ok" if report.ok else "wrong"
            except Deadline:
                outcome = "rejected:deadline"
        if outcome == "wrong":
            rec.wrong += len(report.violations)
        if ps is not None:
            with Clock() as check:
                try:
                    bad = oracles.piece_violations(api.mod["syntax"], g,
                                                   ps.pieces, box)
                except ValueError:
                    rec.oracle_skipped += 1
                    bad = 0
            rec.check_cpu += check.cpu
            rec.samples += 1
            if bad:
                rec.wrong += bad
                outcome = "wrong"
        rec.op(outcome, clk, pieces=len(ps.pieces) if ps else 0)


WORKLOADS = {w.name: w for w in (QeMixed, QeCongruence, EvalGround,
                                 Piecewise)}
