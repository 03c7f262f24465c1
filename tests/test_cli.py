"""Command-line interface: subcommands, exit codes, output shapes."""

import argparse
import inspect
import json
import pathlib
import shlex

import pytest

from oagqe.cli import main, make_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def zz(tmp_path):
    p = tmp_path / "zz.model"
    p.write_text("Z\nZ\n")
    return str(p)


@pytest.fixture
def z(tmp_path):
    p = tmp_path / "z.model"
    p.write_text("Z\n")
    return str(p)


def test_eliminate_json(capsys):
    rc = main(["eliminate", "--json",
               "--formula", "(E x G (eq c2min (* 2 x) y 0))"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1 and doc["clauses"]
    for cl in doc["clauses"]:
        assert set(cl) == {"params", "guard", "literals"}


def test_eliminate_declared_aux_anchor(capsys):
    # without the declaration elimination cannot tell the anchor's sort
    body = "(E x G (and (lt a1 x y 0) (lt a1 z x 0)))"
    assert main(["eliminate", "--formula", body]) == 1
    assert "anchor sort unknown" in capsys.readouterr().err
    for text in ("(decl a1 (Ac 2) %s)" % body,
                 "(decl a1 (Ac 2) (E x G (lt a1 x y 0)))"):
        assert main(["eliminate", "--json", "--formula", text]) == 0
        assert json.loads(capsys.readouterr().out)["clauses"]


def test_eliminate_resource_limit(capsys):
    rc = main(["eliminate", "--max-branches", "1",
               "--formula",
               "(E x G (and (lt c2min z x 0) (eq c2min (* 3 x) y 1)))"])
    assert rc == 2
    assert "resource limit" in capsys.readouterr().err


def test_spine_lists_points(capsys, zz):
    rc = main(["spine", "--model", zz, "c2", "e3"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert all(line.startswith("(Ac 2)") or line.startswith("(Ae 3)")
               for line in out)


def test_spine_bad_sort_spec(capsys, zz):
    rc = main(["spine", "--model", zz, "x9"])
    assert rc == 1
    assert "input error" in capsys.readouterr().err


def test_eval_truth_and_exit_codes(capsys, zz):
    rc = main(["eval", "--model", zz,
               "--formula", "(plainlt 0 x)", "x=2,0"])
    assert rc == 0 and capsys.readouterr().out.strip() == "true"
    rc = main(["eval", "--model", zz,
               "--formula", "(plainlt 0 x)", "x=-1,0"])
    assert rc == 0 and capsys.readouterr().out.strip() == "false"


def test_eval_unknown_exit_code(capsys, tmp_path):
    # a true universal with a nested existential over a dense model is
    # beyond both the one-variable solver and bounded search
    q = tmp_path / "q.model"
    q.write_text("Q\n")
    rc = main(["eval", "--model", str(q),
               "--formula", "(A x G (E z G (eq c2min (* 2 z) x 0)))"])
    assert rc == 3 and capsys.readouterr().out.strip() == "unknown"


def test_eval_input_errors(capsys, zz):
    rc = main(["eval", "--model", zz, "--formula", "(plainlt 0 x)"])
    assert rc == 1
    assert "unassigned" in capsys.readouterr().err
    rc = main(["eval", "--model", zz, "--formula", "(plainlt 0 x)", "x=1"])
    assert rc == 1
    assert "coordinates" in capsys.readouterr().err


def test_eval_free_auxiliary_variable(capsys, zz):
    # a declared free auxiliary variable takes a spine id from `spine`
    main(["spine", "--model", zz, "c2"])
    ids = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
    assert ids == ["g0", "g1"]
    f = "(decl a1 (Ac 2) (and (le a1 c2min) (plainlt 0 x)))"
    for a1, want in (("g0", "true"), ("g1", "false")):
        assert main(["eval", "--model", zz, "--formula", f,
                     "x=1,0", "a1=" + a1]) == 0
        assert capsys.readouterr().out.strip() == want
    for argv, err in ((["x=1,0"], "unassigned variables: a1"),
                      (["x=1,0", "a1=g7"], "not a spine point"),
                      (["x=1,0", "a1=1,0"], "not a spine point")):
        assert main(["eval", "--model", zz, "--formula", f] + argv) == 1
        assert err in capsys.readouterr().err
    # without the declaration its sort, hence its spine, is unknown
    assert main(["eval", "--model", zz, "--formula", "(le a1 c2min)",
                 "a1=g0"]) == 1
    assert "no declared sort" in capsys.readouterr().err


def test_malformed_formula_reports_position(capsys, zz):
    rc = main(["eval", "--model", zz, "--formula", "(plainlt 0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "input error" in err and "line 1" in err


def test_check_differential(capsys, z):
    rc = main(["check", "--model", z, "--samples", "30", "--seed", "5",
               "--formula", "(E x G (eq c2min (* 2 x) y 0))"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mismatches 0" in out


def test_check_seed_determinism(capsys, z, monkeypatch):
    argv = ["check", "--model", z, "--samples", "20",
            "--formula", "(E x G (lt c2min y x 0))"]
    monkeypatch.setenv("OAGQE_SEED", "9")
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    rc = main(argv + ["--seed", "10"])
    assert rc == 0


def test_piecewise_json(capsys, z, tmp_path):
    f = tmp_path / "half.sexpr"
    f.write_text("; floor of half\n"
                 "(and (not (lt c2min x (* 2 y) 0)) (lt c2min x (* 2 y) 2))")
    rc = main(["piecewise", "--model", z, "--formula", str(f),
               "--value", "y", "--box", "6", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pieces"]) == 2
    assert doc["violations"] == []
    assert doc["verified_points"] == 13


def test_piecewise_value_not_free(capsys, z):
    rc = main(["piecewise", "--model", z, "--formula", "(plainlt 0 x)",
               "--value", "y"])
    assert rc == 1
    assert "not free" in capsys.readouterr().err


def test_model_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("Z\nR\n")
    rc = main(["spine", "--model", str(bad), "c2"])
    assert rc == 1
    assert "bad model file" in capsys.readouterr().err
    rc = main(["spine", "--model", str(tmp_path / "missing"), "c2"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_usage_errors_exit_as_input_errors(capsys, zz):
    # exit status 2 means a resource limit, so a usage error is an input
    # error; each subcommand has only the options it reads
    for argv in (["eval", "--bogus"], [], ["frobnicate"],
                 ["spine", "--model", zz, "--formula", "x"],
                 ["eliminate", "--seed", "3", "--formula", "true"]):
        assert main(argv) == 1, argv
        assert "input error" in capsys.readouterr().err


def test_every_subcommand_option_is_read():
    ap = make_parser()
    subs = next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == {"eliminate", "spine", "check", "eval",
                                 "piecewise"}
    for name, p in subs.choices.items():
        source = inspect.getsource(p.get_default("run"))
        for action in p._actions:
            if action.dest != "help":
                assert "args.%s" % action.dest in source, (name, action)


def test_readme_command_lines_parse():
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("oagqe ")]
    assert len(lines) >= 6
    ap = make_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert ap.parse_args(argv).cmd == argv[0], line
