"""Spans and counters recorded from outside the program.

Each layer's public functions are wrapped where their callers imported
them (a module attribute), so nothing in the program changes.  A span has
a name, a start and an end in thread CPU time, the index of its parent
span and the id of the operation it belongs to.  Spans stay in memory and
are written out when the run ends.  A layer's self time is the duration
of its spans minus the time their child spans cover.
"""

import json
import time
from collections import defaultdict

clock = time.thread_time   # see workloads.cpu_clock


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []          # indices of open spans
        self.open = defaultdict(int)
        self.counts = defaultdict(int)
        self.op = 0
        self._patched = []

    # -- spans -----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, clock(), None, parent, self.op])
        self.open[name] += 1

    def end(self, depth=None):
        """Close the innermost span, or every span above the given depth
        (used after an operation was interrupted by its deadline)."""

        stop = len(self.stack) - 1 if depth is None else depth
        now = clock()
        while len(self.stack) > stop:
            sp = self.spans[self.stack.pop()]
            sp[2] = now
            self.open[sp[0]] -= 1

    def wrap(self, name, fn, count=None):
        """fn inside a span.  A function that recurses through the patched
        name gets a span only for its outermost call.  count(counts, result,
        exception) updates counters after each spanned call."""

        def spanned(*args, **kwargs):
            if self.open[name]:
                return fn(*args, **kwargs)
            self.begin(name)
            self.counts[name + ".calls"] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end()
                if count is not None:
                    count(self.counts, None, exc)
                raise
            self.end()
            if count is not None:
                count(self.counts, out, None)
            return out

        return spanned

    def wrap_factory(self, name, factory):
        """A function that returns a function: its construction and every
        call of what it returned are spans of the same name."""

        made = self.wrap(name, factory)

        def spanned(*args, **kwargs):
            return self.wrap(name, made(*args, **kwargs))

        return spanned

    def tally(self, name, fn):
        """fn with a call counter and no span; for functions too fine to
        span, whose time stays in their caller's self time."""

        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------

    def patch(self, obj, attr, wrapper):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def unpatch(self):
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """(self seconds per span name, total seconds of root spans)."""

        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        roots = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
            if parent < 0:
                roots += end - start
        return out, roots

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# name start end parent op\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def install(tracer, api):
    """Wrap each layer's functions at the call sites the benchmark reaches:
    the benchmark's own API table and the module attributes through which
    one layer calls another."""

    m = api.mod
    w = tracer.wrap

    def clauses_out(key):
        def count(counts, out, exc):
            if out is not None:
                counts[key] += len(out)
        return count

    def solver_count(counts, out, exc):
        if exc is not None and isinstance(exc, m["solver"].SolverLimit):
            counts["solver.solve_clause.limits"] += 1
        elif exc is None and out is not None:
            counts["solver.solve_clause.witnesses"] += 1

    def unknown_count(counts, out, exc):
        if exc is None and out is None:
            counts["evaluate.decide_exists_main.unknown"] += 1

    def chars_count(counts, out, exc):
        if out is not None:
            counts["sexpr.print_formula.chars"] += len(out)

    def verify_count(counts, out, exc):
        if out is not None:
            counts["piecewise.verify_decomposition.points"] += out.points

    def pieces_count(counts, out, exc):
        if out is not None:
            counts["piecewise.pieces"] += len(out.pieces)

    dnf = w("normal.dnf_disjoint_tree", m["normal"].dnf_disjoint_tree,
            clauses_out("normal.dnf_disjoint_tree.clauses_out"))
    tracer.patch(m["translate"], "dnf_disjoint_tree", dnf)
    tracer.patch(m["piecewise"], "dnf_disjoint_tree", dnf)
    tracer.patch(m["translate"], "hoist_main_units",
                 w("normal.hoist_main_units", m["normal"].hoist_main_units))
    tracer.patch(m["translate"], "extract_can_terms",
                 w("normal.extract_can_terms",
                   m["normal"].extract_can_terms))
    tracer.patch(m["eliminate"], "syn_qf_to_qe_fuf",
                 w("translate.syn_qf_to_qe_fuf",
                   m["translate"].syn_qf_to_qe_fuf))
    tracer.patch(m["eliminate"], "qe_atom_to_syn",
                 w("translate.qe_atom_to_syn", m["translate"].qe_atom_to_syn))
    tracer.patch(m["eliminate"], "eliminate_exists_main",
                 w("eliminate.eliminate_exists_main",
                   m["eliminate"].eliminate_exists_main))
    tracer.patch(m["eliminate"], "dim_chain_formula",
                 tracer.tally("eliminate.dim_chain_formula",
                              m["translate"].dim_chain_formula))
    ev = m["evaluate"]
    tracer.patch(ev, "decide_exists_main",
                 w("evaluate.decide_exists_main", ev.decide_exists_main,
                   unknown_count))
    tracer.patch(ev, "ground_for_var",
                 w("evaluate.ground_for_var", ev.ground_for_var))
    tracer.patch(ev, "dnf_clauses", w("evaluate.dnf_clauses", ev.dnf_clauses))
    tracer.patch(ev, "compile_clause",
                 w("evaluate.compile_clause", ev.compile_clause,
                   clauses_out("evaluate.compile_clause.clauses_out")))
    tracer.patch(m["solver"], "solve_clause",
                 w("solver.solve_clause", m["solver"].solve_clause,
                   solver_count))
    spine = tracer.tally("models.spine", m["models"].spine)
    tracer.patch(m["models"], "spine", spine)
    tracer.patch(ev, "spine", spine)
    tracer.patch(api, "spine", spine)
    # evaluate imports dim_query inside the function, at each call
    tracer.patch(m["models"], "dim_query",
                 w("models.dim_query", m["models"].dim_query))
    evaluate = w("evaluate.evaluate", ev.evaluate)
    tracer.patch(m["piecewise"], "evaluate", evaluate)
    tracer.patch(api, "evaluate", evaluate)
    tracer.patch(api, "evaluator",
                 tracer.wrap_factory("evaluate.evaluator", ev.evaluator))
    tracer.patch(api, "family_evaluator",
                 tracer.wrap_factory("evaluate.family_evaluator",
                                     ev.family_evaluator))
    tracer.patch(api, "qe_driver",
                 w("eliminate.qe_driver", m["eliminate"].qe_driver))
    tracer.patch(api, "decompose",
                 w("piecewise.decompose", m["piecewise"].decompose,
                   pieces_count))
    tracer.patch(api, "verify_decomposition",
                 w("piecewise.verify_decomposition",
                   m["piecewise"].verify_decomposition, verify_count))
    tracer.patch(api, "parse_formula",
                 w("sexpr.parse_formula", m["sexpr"].parse_formula))
    tracer.patch(api, "print_formula",
                 w("sexpr.print_formula", m["sexpr"].print_formula,
                   chars_count))
