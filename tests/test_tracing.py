"""The benchmark's tracer patches names that the program still defines.

perfbench/tracing.py wraps functions at the module attributes through
which one layer calls another.  This installs it on a table built from the
modules the suite has already imported, the way perfbench/run.py builds
its own, runs one evaluation under it and takes the patches off again, so
that a change removing a patched name fails here rather than only in a
traced benchmark run."""

import ast
import importlib
import importlib.util
import pathlib
import types

from oagqe.models import IntComp, LexModel
from oagqe.syntax import Exists, LinTerm, PlainRel, SORT_G

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _constants(path, names):
    """The literal values of the named top-level assignments of a file,
    read without importing it."""

    out = {}
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in names):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    return out


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _api():
    """run.py's table of the program's modules and API functions."""

    table = _constants(PERFBENCH / "run.py", {"MODULES", "API"})
    mod = {m: importlib.import_module("oagqe." + m)
           for m in table["MODULES"]}
    api = types.SimpleNamespace(mod=mod)
    for fn, module in table["API"].items():
        setattr(api, fn, getattr(mod[module], fn))
    api.ResourceLimit = mod["normal"].ResourceLimit
    return api


def test_tracer_installs_on_the_program_and_comes_off():
    tracing, api = _tracing(), _api()
    before = {m: dict(vars(mod)) for m, mod in api.mod.items()}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, api)
        model = LexModel((IntComp(),))
        x, y = LinTerm.var("x"), LinTerm.var("y")
        f = Exists("x", SORT_G, PlainRel("lt", y, x))
        assert api.evaluate(model, {"y": model.element([3])}, f) is True
    finally:
        tracer.unpatch()
    assert {m: dict(vars(mod)) for m, mod in api.mod.items()} == before
    for name in ("evaluate.evaluate", "evaluate.decide_exists_main",
                 "evaluate.ground_for_var", "evaluate.dnf_clauses",
                 "evaluate.compile_clause", "solver.solve_clause"):
        assert tracer.counts[name + ".calls"] == 1, name
