"""Reference checks that do not trust the program under test.

They work on the benchmark's own description of each generated input
(integer coefficients, moduli, closed-form functions), never on the
program's parse of its text, and share no code with the test suite.
"""

import math


def lin_value(coeffs, env):
    return sum(c * env[v] for v, c in coeffs.items())


# ---------------------------------------------------------------------------
# One-variable Presburger satisfiability over Z

def literal_holds(lit, env):
    op, lhs, rhs, m, pol = lit
    d = lin_value(lhs, env) - lin_value(rhs, env)
    v = d < 0 if op == "lt" else d % m == 0
    return v == pol


def congruence_period(lits):
    """lcm over congruence literals of the period of x in each."""

    period = 1
    for op, lhs, _, m, _ in lits:
        if op == "cong":
            cx = abs(lhs.get("x", 0))
            per = m // math.gcd(cx, m) if cx else 1
            period = period * per // math.gcd(period, per)
    return period


def exists_x(lits, y, z):
    """Whether some integer x satisfies every literal at the given y, z.

    Each literal is eventually periodic in x with a period dividing L, so
    it is enough to look one period and a step around every inequality
    threshold and a full period beyond the extreme thresholds."""

    period = congruence_period(lits)
    thresholds = [0]
    for op, lhs, rhs, _, _ in lits:
        cx = lhs.get("x", 0)
        if op == "lt" and cx:
            env = {"x": 0, "y": y, "z": z}
            thresholds.append(
                (lin_value(rhs, env) - lin_value(lhs, env)) // cx)
    lo, hi = min(thresholds), max(thresholds)
    cands = set()
    for b in thresholds:
        cands.update(range(b - period - 1, b + period + 2))
    cands.update(range(lo - 2 * period - 2, lo - period + 1))
    cands.update(range(hi + period, hi + 2 * period + 3))
    return any(all(literal_holds(lit, {"x": x, "y": y, "z": z})
                   for lit in lits)
               for x in cands)


# ---------------------------------------------------------------------------
# Piecewise-linear graphs over Z

def graph_holds(graph, point, y):
    """The generated graph relation at integer arguments and value y."""

    kind = graph["kind"]
    env = dict(zip(graph["args"], point))
    if kind == "floor":
        num = lin_value(graph["coeffs"], env) + graph["b"]
        k = graph["k"]
        return k * y <= num < k * y + k
    vals = [lin_value(c, env) + d for c, d in graph["terms"]]
    best = max(vals) if kind == "max" else min(vals)
    return y == best


def brute_value(graph, point, radius):
    """The unique y in [-radius, radius] satisfying the graph relation, or
    None when there is not exactly one."""

    hits = [y for y in range(-radius, radius + 1)
            if graph_holds(graph, point, y)]
    return hits[0] if len(hits) == 1 else None


def value_radius(graph, box):
    """A radius that contains every function value over the box."""

    if graph["kind"] == "floor":
        c = sum(abs(v) for v in graph["coeffs"].values())
        return (c * box + abs(graph["b"])) // graph["k"] + 1
    return max(sum(abs(v) for v in c.values()) * box + abs(d)
               for c, d in graph["terms"]) + 1


def guard_holds(S, f, env):
    """Truth of a piece guard over Z at integer values, read from the
    formula's structure: plain and bottom-anchored relations, negation,
    conjunction and disjunction.  Anything else raises ValueError."""

    if isinstance(f, S.Top):
        return True
    if isinstance(f, S.Bottom):
        return False
    if isinstance(f, S.Not):
        return not guard_holds(S, f.arg, env)
    if isinstance(f, S.And):
        return all(guard_holds(S, g, env) for g in f.args)
    if isinstance(f, S.Or):
        return any(guard_holds(S, g, env) for g in f.args)
    if isinstance(f, S.MainRel) and isinstance(f.aux, S.SortMin):
        d = (lin_value(dict(f.lhs.coeffs), env)
             - lin_value(dict(f.rhs.coeffs), env) - f.k)
        if f.op == "lt":
            return d < 0
        if f.op == "eq":
            return d == 0
        if f.op == "cong":
            return d % f.m == 0
    if isinstance(f, S.PlainRel):
        d = (lin_value(dict(f.lhs.coeffs), env)
             - lin_value(dict(f.rhs.coeffs), env))
        return d < 0 if f.op == "lt" else d % f.m == 0
    raise ValueError("guard outside the checked fragment: %r" % (f,))


def piece_violations(S, graph, pieces, box):
    """Points of the box where the decomposition disagrees with a brute
    force value search: not exactly one guard holds, or the live piece's
    value is not the function's value."""

    bad = 0
    radius = value_radius(graph, box)
    n = len(graph["args"])
    for point in box_points(n, box):
        env = dict(zip(graph["args"], point))
        want = brute_value(graph, point, radius)
        live = [p for p in pieces if guard_holds(S, p.guard, env)]
        if want is None or len(live) != 1:
            bad += 1
            continue
        p = live[0]
        num = sum(r * v for r, v in zip(p.coeffs, point)) + p.offset
        if num % p.denom or num // p.denom != want:
            bad += 1
    return bad


def box_points(n, box):
    if n == 0:
        yield ()
        return
    for rest in box_points(n - 1, box):
        for v in range(-box, box + 1):
            yield rest + (v,)
