"""Concrete s-expression syntax: parse_formula and print_formula.

The surface grammar (atoms in prefix form, quantifiers (E v SORT F) and
(A v SORT F)) is deliberately small and unambiguous.  (decl v SORT F)
gives the free auxiliary variable v its sort inside F and is not itself a
node.  Connectives are built with the smart constructors neg, conj and
disj, so a parsed formula has its constants folded and its nested
connectives flattened.  print_formula emits a canonical form without
declarations; parse_formula(print_formula(f)) is structurally f, for f
built with the smart constructors, up to the sorts of free auxiliary
variables.

Every atom and every compound auxiliary term is written (HEAD ARG ...)
and described once, in the table HEADS: its class, the fields the head
fixes, and the fields it reads in order.  The parser reads a field as a
main-sort term or an auxiliary term as syntax.TERM_FIELDS says, else as
an integer, a sort or a spine point id gN; the printer writes it back the
same way, so the two agree by construction.
"""

from __future__ import annotations

import re
from typing import Union

from .syntax import (
    AC, AE, AEP, And, Atom, AuxAsymp, AuxLe, AuxTerm, AuxVar, Bottom,
    CongDot, Discr, DimFloor, DimSucc, DPred, EqDot, Exists, FALSE, Forall,
    Formula, LinTerm, MainRel, Not, Or, PlainRel, Sc, Se, Sort, SortMin,
    SpineRef, SuccPlus, TERM_FIELDS, TRUE, Top, conj, disj, neg, SORT_G,
)

# Each surface head of an atom or an auxiliary term: (its class, the fields
# that the head fixes, the fields it reads in surface order).  The parser
# builds nodes from it and the printer prints from its inverse, keyed by
# class and op.  The sugar gt geq leq neq, (cmin P), (emin P) and c2min,
# the connectives, the quantifiers and decl are read by the parser itself.
HEADS = {
    "eq": (MainRel, {"op": "eq"}, "aux lhs rhs k"),
    "lt": (MainRel, {"op": "lt"}, "aux lhs rhs k"),
    "cong": (MainRel, {"op": "cong"}, "m aux lhs rhs k"),
    "congb": (MainRel, {"op": "congb", "k": 0}, "m mp aux lhs rhs"),
    "plainlt": (PlainRel, {"op": "lt"}, "lhs rhs"),
    "plaincong": (PlainRel, {"op": "cong"}, "m lhs rhs"),
    "le": (AuxLe, {}, "lhs rhs"),
    "asymp": (AuxAsymp, {}, "lhs rhs"),
    "discr": (Discr, {}, "aux"),
    "dimsucc": (DimSucc, {}, "p s ell aux"),
    "dimfloor": (DimFloor, {}, "p s ell aux"),
    "eqdot": (EqDot, {}, "k t"),
    "congdot": (CongDot, {}, "m k t"),
    "dpred": (DPred, {}, "p r s t"),
    "sc": (Sc, {}, "p r arg"),
    "se": (Se, {}, "p arg"),
    "plus": (SuccPlus, {}, "arg"),
    "pt": (SpineRef, {}, "sort class_id"),
}

# head -> (base head, negated, sides swapped): gt is lt with its sides
# swapped and its offset negated, leq the negation of gt
_SUGAR = {"gt": ("lt", False, True), "geq": ("lt", True, False),
          "leq": ("lt", True, True), "neq": ("eq", True, False)}


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (msg, line, col))
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        body = line.split(";", 1)[0]
        for m in _TOKEN.finditer(body):
            toks.append(_Tok(m.group(), lineno, m.start() + 1))
    return toks


Node = Union[_Tok, list]


def _read(toks: list[_Tok], i: int) -> tuple[Node, int]:
    if i >= len(toks):
        last = toks[-1] if toks else _Tok("", 1, 1)
        raise ParseError("unexpected end of input", last.line, last.col)
    t = toks[i]
    if t.text == "(":
        items: list[Node] = []
        i += 1
        while True:
            if i >= len(toks):
                raise ParseError("unclosed parenthesis", t.line, t.col)
            if toks[i].text == ")":
                return _ListNode(items, t), i + 1
            node, i = _read(toks, i)
            items.append(node)
    if t.text == ")":
        raise ParseError("unexpected ')'", t.line, t.col)
    return t, i + 1


class _ListNode(list):
    def __init__(self, items, open_tok):
        super().__init__(items)
        self.line = open_tok.line
        self.col = open_tok.col


def _err(node: Node, msg: str):
    raise ParseError(msg, node.line, node.col)


def _is_tok(node: Node) -> bool:
    return isinstance(node, _Tok)


_INT = re.compile(r"-?\d+\Z")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.'-]*\Z")
_MIN_SUGAR = re.compile(r"([ce])(\d+)min\Z")
_SPINE_ID = re.compile(r"g\d+\Z")


def _word(node: Node, pattern, what: str) -> str:
    if not _is_tok(node) or not pattern.match(node.text):
        _err(node, "expected %s" % what)
    return node.text


def _int(node: Node, what: str = "integer") -> int:
    if not _is_tok(node) or not _INT.match(node.text):
        _err(node, "expected %s" % what)
    return int(node.text)


def _name(node: Node) -> str:
    return _word(node, _NAME, "identifier")


def _parse_sort(node: Node) -> Sort:
    if _is_tok(node):
        if node.text == "G":
            return SORT_G
        _err(node, "unknown sort %r" % node.text)
    if len(node) == 2 and _is_tok(node[0]) and node[0].text in (AC, AE, AEP):
        n = _int(node[1], "sort modulus")
        try:
            return Sort(node[0].text, n)
        except ValueError as e:
            _err(node, str(e))
    _err(node, "expected sort")


def _parse_lin(node: Node, env: dict[str, Sort]) -> LinTerm:
    if _is_tok(node):
        if node.text == "0":
            return LinTerm.zero()
        name = _name(node)
        if env.get(name, SORT_G) != SORT_G:
            _err(node, "auxiliary variable %r used in a main-sort term" % name)
        return LinTerm.var(name)
    if not node or not _is_tok(node[0]):
        _err(node, "expected main-sort term")
    head = node[0].text
    if head == "*":
        if len(node) != 3:
            _err(node, "(* C VAR) takes two arguments")
        c = _int(node[1], "coefficient")
        return _parse_lin(node[2], env).scale(c)
    if head == "+":
        out = LinTerm.zero()
        for sub in node[1:]:
            out = out + _parse_lin(sub, env)
        return out
    if head == "-":
        if len(node) == 2:
            return -_parse_lin(node[1], env)
        if len(node) == 3:
            return _parse_lin(node[1], env) - _parse_lin(node[2], env)
        _err(node, "(- T) or (- T1 T2)")
    _err(node, "expected main-sort term, got %r" % head)


def _build(node: list, entry, env: dict[str, Sort]):
    """The atom or auxiliary term that node writes; entry, a _READ entry,
    lists its fields in surface order."""

    head = node[0].text
    cls, fixed, fields = entry
    if len(node) != len(fields) + 1:
        if issubclass(cls, Atom):
            _err(node, "%s takes %d arguments" % (head, len(fields)))
        _err(node, "(%s %s)" % (head, " ".join(f[3] for f in fields)))
    kw = dict(fixed)
    for (name, read, _, _), arg in zip(fields, node[1:]):
        kw[name] = read(arg, env)
    try:
        return cls(**kw)
    except ValueError as e:
        _err(node, str(e))


def _parse_aux(node: Node, env: dict[str, Sort]) -> AuxTerm:
    if _is_tok(node):
        m = _MIN_SUGAR.match(node.text)
        if not m:
            name = _name(node)
            sort = env.get(name)
            if sort is not None and sort.is_main:
                _err(node, "main variable %r used in auxiliary position"
                     % name)
            return AuxVar(name, sort)
        letter, n = m.group(1), int(m.group(2))
    else:
        if not node or not _is_tok(node[0]):
            _err(node, "expected auxiliary term")
        head = node[0].text
        entry = _READ.get(head)
        if entry is not None and issubclass(entry[0], AuxTerm):
            return _build(node, entry, env)
        if head not in ("cmin", "emin"):
            _err(node, "expected auxiliary term, got %r" % head)
        if len(node) != 2:
            _err(node, "(%s P)" % head)
        letter, n = head[0], _int(node[1])
    try:
        return SortMin(Sort(AC if letter == "c" else AE, n))
    except ValueError as e:
        _err(node, str(e))


def _parse_formula(node: Node, env: dict[str, Sort]) -> Formula:
    if _is_tok(node):
        if node.text == "true":
            return TRUE
        if node.text == "false":
            return FALSE
        _err(node, "expected formula")
    if not node or not _is_tok(node[0]):
        _err(node, "expected formula")
    head = node[0].text
    args = node[1:]

    def arity(n):
        if len(args) != n:
            _err(node, "%s takes %d arguments" % (head, n))

    entry = _READ.get(head)
    if entry is not None and issubclass(entry[0], Atom):
        return _build(node, entry, env)
    if head in _SUGAR:
        base, negated, swapped = _SUGAR[head]
        a = _build(node, _READ[base], env)
        if swapped:
            a = MainRel("lt", a.rhs, a.lhs, -a.k, a.aux)
        return neg(a) if negated else a
    if head == "not":
        arity(1)
        return neg(_parse_formula(args[0], env))
    if head == "and":
        return conj([_parse_formula(a, env) for a in args])
    if head == "or":
        return disj([_parse_formula(a, env) for a in args])
    if head in ("decl", "E", "A"):
        arity(3)
        var = _name(args[0])
        sort = _parse_sort(args[1])
        if head == "decl" and sort.is_main:
            _err(args[1], "decl declares auxiliary sorts only")
        body = _parse_formula(args[2], {**env, var: sort})
        if head == "decl":
            return body
        return (Exists if head == "E" else Forall)(var, sort, body)
    _err(node, "unknown formula head %r" % head)


def parse_formula(text: str) -> Formula:
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input", 1, 1)
    node, i = _read(toks, 0)
    if i != len(toks):
        t = toks[i]
        raise ParseError("trailing input %r" % t.text, t.line, t.col)
    return _parse_formula(node, {})


# ---------------------------------------------------------------------------
# Printing

def print_sort(s: Sort) -> str:
    return "G" if s.is_main else "(%s %d)" % (s.kind, s.n)


def print_lin(t: LinTerm) -> str:
    parts = [v if c == 1 else "(* %d %s)" % (c, v) for v, c in t.coeffs]
    if len(parts) == 1:
        return parts[0]
    return "(+ %s)" % " ".join(parts) if parts else "0"


def print_aux(t: AuxTerm) -> str:
    if isinstance(t, AuxVar):
        return t.name
    if isinstance(t, SortMin):
        return "(%s %d)" % ("cmin" if t.sort.kind == AC else "emin", t.sort.n)
    if not isinstance(t, AuxTerm):
        raise TypeError("not an auxiliary term: %r" % (t,))
    return _print_fields(t)


def _print_fields(x) -> str:
    """An atom or auxiliary term written with its head of HEADS."""

    head, fields = _SHOW[type(x), getattr(x, "op", None)]
    return "(%s %s)" % (head, " ".join([show(getattr(x, name))
                                        for name, show in fields]))


def print_formula(f: Formula) -> str:
    """The canonical text of f.  Each node keeps its text once printed, as
    it keeps its hash (see syntax), so a subformula shared by several
    formulas, or occurring several times in one, is printed once."""

    text = getattr(f, "_text", None)
    if text is None:
        text = _print_node(f)
        object.__setattr__(f, "_text", text)
    return text


def _print_node(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        return _print_fields(f)
    if isinstance(f, Not):
        return "(not %s)" % print_formula(f.arg)
    if isinstance(f, (And, Or)):
        if not f.args:   # only a raw And(()) or Or(()) has no arguments
            return "true" if isinstance(f, And) else "false"
        return "(%s %s)" % ("and" if isinstance(f, And) else "or",
                            " ".join(print_formula(g) for g in f.args))
    if isinstance(f, (Exists, Forall)):
        return "(%s %s %s %s)" % ("E" if isinstance(f, Exists) else "A",
                                  f.var, print_sort(f.sort),
                                  print_formula(f.body))
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# The head table, read both ways

def _field(cls: type, name: str):
    """(reader(node, env), printer, placeholder in a usage message) of one
    field of cls."""

    lins, auxs = TERM_FIELDS[cls]
    if name in lins:
        return _parse_lin, print_lin, "T"
    if name in auxs:
        return _parse_aux, print_aux, "A"
    if name == "sort":
        return lambda node, env: _parse_sort(node), print_sort, "SORT"
    if name == "class_id":
        return (lambda node, env: _word(node, _SPINE_ID, "spine point id gN"),
                str, "ID")
    label = ("offset" if name == "k" else "modulus" if name in ("m", "mp")
             else "integer")
    return lambda node, env: _int(node, label), str, name.upper()


# head -> (class, fixed fields, ((field, reader, printer, placeholder), ...))
_READ = {head: (cls, fixed, tuple((n,) + _field(cls, n)
                                  for n in names.split()))
         for head, (cls, fixed, names) in HEADS.items()}
# (class, op) -> (head, ((field, printer), ...)); op is the one fixed field
# that tells two heads of a class apart
_SHOW = {(cls, fixed.get("op")): (head, tuple((f[0], f[2]) for f in fields))
         for head, (cls, fixed, fields) in _READ.items()}
