"""oagqe benchmark.

    python3 perfbench/run.py --workload qe-mixed --seed 1 --seconds 28 --trace 0

Runs one workload in this process on one thread, as a closed loop with one
caller, through the public API that the `oagqe` subcommands call.  It
prints a table of the workload's end-to-end metrics and, as its last line,
one JSON object: with --trace 0 the metrics named in BENCHMARK.json's
end_to_end, with --trace 1 those of its per_layer, from one traced pass
over the inputs after the untraced passes.  --workload all runs every workload
in turn.  --determinism N runs the first N inputs under two hash seeds in
child processes and fails if any count differs.  Exits 1 on a wrong
answer, 2 when the program cannot be imported.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Inputs per pass, sized so that one pass takes about 13 s on the machine
# the figures in README.md come from: a 28 s run completes two passes.
PASS_SIZE = {"qe-mixed": 70, "qe-congruence": 200, "eval-ground": 650,
             "piecewise": 150}
MODULES = ("sexpr", "syntax", "translate", "normal", "eliminate",
           "evaluate", "solver", "models", "piecewise")
# the API functions the benchmark calls, by the module that defines them
API = {"parse_formula": "sexpr", "print_formula": "sexpr",
       "print_sort": "sexpr", "parse_model": "models", "spine": "models",
       "sample_element": "models", "qe_driver": "eliminate",
       "evaluate": "evaluate", "evaluator": "evaluate",
       "family_evaluator": "evaluate", "decompose": "piecewise",
       "verify_decomposition": "piecewise"}

PER_LAYER = [
    "normal.hoist_main_units.calls", "normal.hoist_main_units.self_s",
    "normal.dnf_disjoint_tree.calls", "normal.dnf_disjoint_tree.self_s",
    "normal.dnf_disjoint_tree.clauses_out",
    "normal.extract_can_terms.self_s",
    "translate.syn_qf_to_qe_fuf.calls", "translate.syn_qf_to_qe_fuf.self_s",
    "translate.qe_atom_to_syn.calls", "translate.qe_atom_to_syn.self_s",
    "eliminate.qe_driver.calls", "eliminate.qe_driver.self_s",
    "eliminate.eliminate_exists_main.calls",
    "eliminate.eliminate_exists_main.self_s",
    "eliminate.dim_chain_formula.calls",
    "eliminate.rejected_s", "eliminate.accept_ratio",
    "eliminate.rejects.clause_cap", "eliminate.rejects.atom_cap",
    "eliminate.rejects.branch_budget", "eliminate.rejects.deadline",
    "evaluate.family_evaluator.calls", "evaluate.family_evaluator.self_s",
    "evaluate.evaluator.calls", "evaluate.evaluator.self_s",
    "evaluate.evaluate.calls", "evaluate.evaluate.self_s",
    "evaluate.decide_exists_main.calls", "evaluate.decide_exists_main.self_s",
    "evaluate.decide_exists_main.unknown",
    "evaluate.ground_for_var.self_s", "evaluate.dnf_clauses.self_s",
    "evaluate.compile_clause.self_s", "evaluate.compile_clause.clauses_out",
    "solver.solve_clause.calls", "solver.solve_clause.self_s",
    "solver.solve_clause.limits", "solver.witness_ratio",
    "models.spine.calls", "models.dim_query.calls", "models.dim_query.self_s",
    "piecewise.decompose.self_s", "piecewise.verify_decomposition.self_s",
    "piecewise.verify_decomposition.points", "piecewise.pieces",
    "sexpr.parse_formula.self_s", "sexpr.print_formula.self_s",
    "sexpr.print_formula.chars",
    "bench.self_s", "trace.op_s", "trace.overhead",
]


def unit_of(name):
    if name.endswith("_s") or name == "trace.overhead":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Set-up: imports, model parsing, input generation

def import_api():
    """A fresh import of the program and the table of API functions the
    benchmark calls (the tracer swaps entries of it)."""

    for name in [n for n in sys.modules
                 if n == "oagqe" or n.startswith("oagqe.")]:
        del sys.modules[name]
    mod = {m: importlib.import_module("oagqe." + m) for m in MODULES}
    api = types.SimpleNamespace(mod=mod)
    for fn, module in API.items():
        setattr(api, fn, getattr(mod[module], fn))
    api.ResourceLimit = mod["normal"].ResourceLimit
    return api


def setup(name, seed, size):
    """Set up SETUP_REPEATS times; the median duration is setup_s."""

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = workloads.cpu_clock()
        api = import_api()
        wl = workloads.WORKLOADS[name](api, seed)
        items = list(itertools.islice(wl.inputs(), size))
        times.append(workloads.cpu_clock() - t0)
    return api, wl, items, statistics.median(times)


# ---------------------------------------------------------------------------
# Measurement

def reference_work():
    """A fixed pure-Python computation of the kind the program does, with
    Fraction arithmetic, tuples, dictionaries and sorting, and none of the
    program's code.  Its CPU time follows the speed of the machine."""

    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        f = Fraction(3 * i + 1, i % 7 + 1)
        acc += f * f - f
        key = (i % 13, i % 5, f.denominator)
        seen[key] = seen.get(key, 0) + f.numerator
    return acc, sorted(seen.items())


REFERENCE_EVERY_S = 0.2   # wall seconds between two reference samples


def run_pass(wl, items, rec, stop=None, tracer=None):
    """One operation per input, in order, each after the previous one has
    finished.  Returns (whether every input was run, CPU seconds without
    the reference samples); the pass is abandoned once the wall clock
    passes `stop`."""

    cpu0 = workloads.cpu_clock()
    next_ref = time.perf_counter()
    for n, item in enumerate(items):
        now = time.perf_counter()
        if stop is not None and now >= stop:
            return False, workloads.cpu_clock() - cpu0 - sum(rec.reference)
        if tracer is None and now >= next_ref:
            gc.disable()   # keep the program's heap out of the reference
            with workloads.Clock() as ref:
                reference_work()
            gc.enable()
            rec.reference.append(ref.cpu)
            next_ref = now + REFERENCE_EVERY_S
        if tracer is not None:
            tracer.op = n
            depth = len(tracer.stack)
            tracer.begin("bench." + wl.name)
            before = tracer.counts.get("solver.solve_clause.calls", 0)
        err = None
        with workloads.Clock() as clk:
            try:
                wl.run(rec, item)
            except Exception as exc:  # an operation that fails is counted
                err = exc
        if err is not None:
            print("error on input %d: %s: %s" % (n, type(err).__name__, err),
                  file=sys.stderr)
            rec.op("error", clk)
        if tracer is not None:
            tracer.end(depth)
            rec.op_counts[-1]["solver_calls"] = (
                tracer.counts.get("solver.solve_clause.calls", 0) - before)
    return True, workloads.cpu_clock() - cpu0 - sum(rec.reference)


def measure(wl, items, seconds):
    """Passes over the same inputs until `seconds` of wall time are used.
    Statistics come from complete passes only, so every run measures the
    same inputs whatever its speed; the pass cut by the time limit counts
    only for its wrong answers and errors.  Returns (recorder, passes, CPU
    seconds of the complete passes)."""

    stop = time.perf_counter() + seconds
    total = workloads.Recorder()
    passes, cpu = 0, 0.0
    while passes == 0 or time.perf_counter() < stop:
        rec = workloads.Recorder()
        done, pass_cpu = run_pass(wl, items, rec, stop if passes else None)
        if not done:
            total.wrong += rec.wrong
            if rec.outcomes["error"]:
                total.outcomes["error"] += rec.outcomes["error"]
            break
        total.merge(rec)
        passes += 1
        cpu += pass_cpu
    return total, passes, cpu


def quantile(sorted_vals, pct):
    """Nearest-rank percentile."""

    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail(vals):
    """(percentile, value, samples beyond it): the highest of a ladder of
    percentiles with at least ten samples beyond it."""

    s = sorted(vals)
    pct = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(s) * (1 - p / 100.0) >= 10:
            pct = p
    if pct is None:
        return None, None, 0
    v = quantile(s, pct)
    return pct, v, sum(1 for x in s if x > v)


def end_to_end(wl, rec, setup_s):
    """Every end-to-end metric of the workload: (name, value, unit, note)."""

    rows = []
    ms = lambda ops: [1000.0 * c for _, c, _ in ops]  # noqa: E731
    all_ms = ms(rec.ops)
    cpu = sum(c for _, c, _ in rec.ops)
    wall = sum(w for _, _, w in rec.ops)
    geomean = math.exp(statistics.fmean(math.log(x) for x in all_ms))
    ref_ms = 1000.0 * statistics.median(rec.reference)
    rows.append(("setup_s", setup_s, "s", "median of %d" % SETUP_REPEATS))
    rows.append(("op_ref_geomean", geomean / ref_ms, "ratio",
                 "op_ms_geomean / reference_ms"))
    rows.append(("op_ms_geomean", geomean, "ms", "n=%d" % len(all_ms)))
    rows.append(("reference_ms", ref_ms, "ms",
                 "median of %d" % len(rec.reference)))
    rows.append(("ops_per_s", len(rec.ops) / cpu, "1/s",
                 "wall %.2f/s" % (len(rec.ops) / wall)))
    qe = wl.name.startswith("qe-")
    if qe:
        acc = [o for o in rec.ops if o[0] == "ok"]
        rej = [o for o in rec.ops if o[0].startswith("rejected:")]
        for label, ops in (("accept", acc), ("reject", rej)):
            vals = ms(ops)
            if vals:
                rows.append(("qe_%s_ms_p50" % label, statistics.median(vals),
                             "ms", "n=%d" % len(vals)))
            p, tv, b = tail(vals)
            if p is not None:
                rows.append(("qe_%s_ms_tail" % label, tv, "ms",
                             "p%s, %d beyond, n=%d" % (p, b, len(vals))))
        rows.append(("qe_per_s", len(rec.ops) / cpu, "1/s", ""))
        rows.append(("qe_reject_share", len(rej) / len(rec.ops), "ratio",
                     "%d/%d" % (len(rej), len(rec.ops))))
        rows.append(("fuf_clauses", rec.clauses, "count", ""))
        if rec.check_cpu:
            rows.append(("check_samples_per_s", rec.samples / rec.check_cpu,
                         "1/s", "%d samples" % rec.samples))
    if wl.name == "eval-ground":
        rows.append(("eval_ms_p50", statistics.median(all_ms), "ms",
                     "n=%d" % len(all_ms)))
        p, tv, b = tail(all_ms)
        if p is not None:
            rows.append(("eval_ms_tail", tv, "ms",
                         "p%s, %d beyond, n=%d" % (p, b, len(all_ms))))
    if wl.name == "piecewise":
        rows.append(("piecewise_ms_p50", statistics.median(all_ms), "ms",
                     "n=%d" % len(all_ms)))
    if wl.name in ("qe-mixed", "eval-ground"):
        rows.append(("unknown_share", rec.unknown / max(rec.evals, 1),
                     "ratio", "%d/%d" % (rec.unknown, rec.evals)))
    rows.append(("wrong_answers", rec.wrong, "count",
                 "%d double-satisfied" % rec.double))
    rows.append(("peak_rss_mb", peak_rss_mb(), "MB", ""))
    return rows


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, rec, overhead):
    self_s, roots = tracer.self_times()
    c = tracer.counts
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = c.get(name, 0)
    out["bench.self_s"] = sum(v for k, v in self_s.items()
                              if k.startswith("bench."))
    # operation outcomes are elimination verdicts only where qe_driver ran
    qe_ops = c.get("eliminate.qe_driver.calls", 0)
    rej = [o for o in rec.ops if qe_ops and o[0].startswith("rejected:")]
    out["eliminate.rejected_s"] = sum((cpu for _, cpu, _ in rej), 0.0)
    out["eliminate.accept_ratio"] = (rec.outcomes["ok"] / qe_ops
                                     if qe_ops else 0.0)
    for reason in ("clause_cap", "atom_cap", "branch_budget", "deadline"):
        out["eliminate.rejects." + reason] = (
            rec.outcomes["rejected:" + reason] if qe_ops else 0)
    calls = c.get("solver.solve_clause.calls", 0)
    out["solver.witness_ratio"] = (c.get("solver.solve_clause.witnesses", 0)
                                   / calls if calls else 0.0)
    out["trace.op_s"] = roots
    out["trace.overhead"] = overhead
    # every span's self time counted once: the layers add up to the ops
    total_self = sum(self_s.values())
    if abs(total_self - roots) > 1e-6 * max(1, len(tracer.spans)):
        raise AssertionError("self times %.6f do not add up to %.6f"
                             % (total_self, roots))
    return out


def print_table(name, seed, rows, rec, passes):
    n = len(rec.ops)
    print("workload %s  seed %d  operations %d (%d passes over %d inputs)"
          % (name, seed, n, passes, n // passes))
    outcomes = ", ".join("%s %d (%.1f%%)" % (k, v, 100.0 * v / n)
                         for k, v in sorted(rec.outcomes.items()))
    print("  outcomes: %s" % outcomes)
    print("  checks: %d samples, %d cut by their deadline, %d outside the "
          "oracle's fragment" % (rec.samples, rec.sample_deadlines,
                                 rec.oracle_skipped))
    for metric, value, unit, note in rows:
        print("  %-22s %14.4f %-6s %s" % (metric, value, unit, note))


# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    api, wl, items, setup_s = setup(name, seed, PASS_SIZE[name])
    gc.collect()
    rec, passes, cpu = measure(wl, items, seconds)
    rows = end_to_end(wl, rec, setup_s)
    print_table(name, seed, rows, rec, passes)
    metrics = {}
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, api)
        traced = workloads.Recorder()
        try:
            _, tcpu = run_pass(wl, items, traced, tracer=tracer)
        finally:
            tracer.unpatch()
        layers = per_layer(tracer, traced, tcpu - cpu / passes)
        out_dir = os.path.join(os.getcwd(), ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (name, seed))
        tracer.write(path)
        print("traced pass over the same %d inputs; spans in %s"
              % (len(items), path))
        for k in PER_LAYER:
            print("  %-42s %14.6f %s" % (k, layers[k], unit_of(k)))
            metrics[k] = {"value": layers[k], "unit": unit_of(k)}
        rec = traced
    else:
        gated = {"setup_s", "op_ref_geomean", "peak_rss_mb"}
        metrics = {m: {"value": v, "unit": u} for m, v, u, _ in rows
                   if m in gated}
    failed = rec.wrong + rec.outcomes["error"]
    return {"correct": rec.wrong == 0, "attempted": len(rec.ops),
            "failed": failed, "metrics": metrics}


def count_run(name, seed, count):
    """The first `count` inputs, traced, without a time limit: per-operation
    counts for the determinism check."""

    api, wl, items, _ = setup(name, seed, count)
    tracer = tracing.Tracer()
    tracing.install(tracer, api)
    rec = workloads.Recorder()
    run_pass(wl, items, rec, tracer=tracer)
    tracer.unpatch()
    return rec.op_counts


def determinism(name, seed, count):
    """Run the count pass under two hash seeds and compare the counts.
    Operations cut by a benchmark deadline in either run are skipped, as
    their counts depend on speed."""

    results = []
    for hs in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hs)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--count", str(count)],
            env=env, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return False
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a, b = results
    skipped = diffs = 0
    for i, (x, y) in enumerate(zip(a, b)):
        if any("deadline" in r["outcome"] or r.get("late") for r in (x, y)):
            skipped += 1
        elif x != y:
            diffs += 1
            print("input %d differs: %s vs %s" % (i, x, y))
    print("determinism %s: %d operations, %d differ, %d skipped (deadline)"
          % (name, len(a), diffs, skipped))
    return diffs == 0 and len(a) == len(b)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--count", type=int, default=None,
                    help="print per-operation counts of the first N inputs")
    ap.add_argument("--determinism", type=int, default=None, metavar="N",
                    help="compare counts of N inputs under two hash seeds")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "oagqe")):
        print("program sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])

    if args.count is not None:
        print(json.dumps(count_run(names[0], args.seed, args.count)))
        return 0
    if args.determinism is not None:
        ok = all([determinism(n, args.seed, args.determinism)
                  for n in names])
        return 0 if ok else 1

    results = [run_workload(n, args.seed, args.seconds, args.trace)
               for n in names]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
