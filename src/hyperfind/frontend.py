"""Surface language: parsing and lowering to program graphs.

An input file is a list of program definitions followed by one trace
specification. Programs are structured imperative code (assignment, havoc,
if/else, while, loop, either/or, observe, skip); the specification is a
forall*/exists* quantifier prefix binding trace variables to programs with
observation label sets, followed by a single `always (...)` invariant over
trace-indexed variables written `x@pi`. The full grammar is documented in
the README.

`load` is the one entry point. There is no syntax tree: the parser lowers
each program to its graph as it parses it, statement by statement. Once the
whole file has parsed, `load` checks the specification against the lowered
programs and resolves each quantifier once, to a `graph.Quantifier` over its
program's graph and the locations of its observation labels: the form that
the search and the oracle both take.
"""

from __future__ import annotations

import sys
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import logic
from .graph import Assign, Edge, Havoc, ProgramGraph, Quantifier, SKIP
from .logic import Formula, FrozenRecord, Record, Term, set_field


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        # line 0 marks errors found after parsing (validation of the
        # specification against the programs), which have no position.
        if line > 0:
            super().__init__(f"line {line}, column {col}: {message}")
        else:
            super().__init__(message)
        self.line = line
        self.col = col


KEYWORDS = {
    "prog", "havoc", "input", "skip", "observe", "if", "else", "while",
    "loop", "either", "or", "forall", "exists", "in", "obs", "always",
    "true", "false",
}

# Read longest match first: a two-character punctuator before one.
_PUNCT2 = frozenset({":=", "==", "!=", "<=", ">=", "&&", "||"})
_PUNCT1 = frozenset("{}();.,@<>+-*/%!")


class Token(FrozenRecord):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        set_field(self, "kind", kind)  # "ident", "int", "punct", "keyword", "eof"
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "col", col)

    def shown(self) -> str:
        """The token as an error message names it."""
        return "end of input" if self.kind == "eof" else repr(self.text)


def tokenize(source: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            start = i
            while i < n and source[i] != "\n":
                i += 1
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue
        if "0" <= c <= "9":  # not str.isdigit, which takes any Unicode digit
            start = i
            while i < n and "0" <= source[i] <= "9":
                i += 1
            tokens.append(Token("int", source[start:i], line, col))
            col += i - start
            continue
        p = source[i:i + 2]
        if p not in _PUNCT2:
            if c not in _PUNCT1:
                raise ParseError(f"unexpected character {c!r}", line, col)
            p = c
        tokens.append(Token("punct", p, line, col))
        i += len(p)
        col += len(p)
    tokens.append(Token("eof", "", line, col))
    return tokens


class LoweredProgram(Record):
    __slots__ = ("graph", "labels")  # labels: label -> observed locations


_Quant = Tuple[str, str, str, List[str]]  # kind, trace variable, program, labels


class _Parser:
    """Recursive descent that lowers each program to its graph as it parses.

    Standard CFG construction, one observed location per observe statement.
    A statement allocates its locations and emits its edges as soon as it is
    parsed: if yields two guarded skip edges (cond first); while yields the
    loop edge before the exit edge; either declares its first block first.
    Both branches of if/either rejoin through balanced skip edges. The
    symbolic search's nodes end only at forks, havocs and observations, so
    these edges no longer align its breadth-first order; they stay because
    they shape each trace's states and the step budget.
    Program variables are implicitly declared and start at 0. They are
    recorded in first-use order: each assigned or havocked target, and the
    variables of each term after folding, so `y := x * 0;` uses no `x`.
    """

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok.shown()}")
        return self.advance()

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    # -- file ---------------------------------------------------------------

    def parse_file(self) -> Tuple[List[LoweredProgram], List[_Quant], Formula]:
        programs = []
        while self.at("keyword", "prog"):
            programs.append(self.parse_program())
        if self.at("eof"):
            raise self.error("no specification (expected 'forall' after program definitions)")
        quants, body = self.parse_spec()
        self.expect("eof")
        return programs, quants, body

    def parse_program(self) -> LoweredProgram:
        self.expect("keyword", "prog")
        name = self.expect("ident").text
        self.edges: List[Edge] = []
        self.labels: Dict[str, set] = {}
        self.variables: Dict[str, None] = {}
        self.count = 0
        initial = self.fresh()
        self.parse_block(initial)
        graph = ProgramGraph(
            name=name,
            locations=tuple(range(self.count)),
            edges=tuple(self.edges),
            initial=initial,
            variables=tuple(self.variables),
        )
        return LoweredProgram(graph, {lab: frozenset(locs) for lab, locs in self.labels.items()})

    # -- lowering -----------------------------------------------------------

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def emit(self, src: int, dst: int, guard: Formula, effect) -> None:
        self.edges.append(Edge(src, dst, guard, effect))

    def step(self, entry: int, effect) -> int:
        exit_ = self.fresh()
        self.emit(entry, exit_, logic.TRUE, effect)
        return exit_

    def branch(self, entry: int, first: Formula, second: Formula) -> Tuple[int, int]:
        first_entry = self.fresh()
        second_entry = self.fresh()
        self.emit(entry, first_entry, first, SKIP)
        self.emit(entry, second_entry, second, SKIP)
        return first_entry, second_entry

    def join(self, first_exit: int, second_exit: int) -> int:
        join = self.fresh()
        self.emit(first_exit, join, logic.TRUE, SKIP)
        self.emit(second_exit, join, logic.TRUE, SKIP)
        return join

    def use(self, names) -> None:
        for name in names:
            self.variables.setdefault(name, None)

    def parse_cond(self) -> Formula:
        self.expect("punct", "(")
        cond = self.parse_bexpr(allow_trace_vars=False)
        self.expect("punct", ")")
        self.use(_ordered_vars(cond))
        return cond

    # -- statements ---------------------------------------------------------

    def parse_block(self, entry: int) -> int:
        """Lower a block from `entry`; returns its exit location."""
        self.expect("punct", "{")
        at = entry
        while not self.at("punct", "}"):
            at = self.parse_stmt(at)
        self.expect("punct", "}")
        return at

    def parse_stmt(self, entry: int) -> int:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text in ("havoc", "input"):
                self.advance()
                target = self.expect("ident").text
                self.expect("punct", ";")
                self.use([target])
                return self.step(entry, Havoc(target))
            if tok.text == "skip":
                self.advance()
                self.expect("punct", ";")
                return self.step(entry, SKIP)
            if tok.text == "observe":
                self.advance()
                label = self.expect("ident").text
                self.expect("punct", ";")
                obs = self.step(entry, SKIP)
                self.labels.setdefault(label, set()).add(obs)
                return obs
            if tok.text == "if":
                self.advance()
                cond = self.parse_cond()
                then_entry, else_entry = self.branch(entry, cond, logic.negate(cond))
                then_exit = self.parse_block(then_entry)
                else_exit = else_entry
                if self.at("keyword", "else"):
                    self.advance()
                    else_exit = self.parse_block(else_entry)
                return self.join(then_exit, else_exit)
            if tok.text == "while":
                self.advance()
                cond = self.parse_cond()
                body_entry, exit_ = self.branch(entry, cond, logic.negate(cond))
                self.emit(self.parse_block(body_entry), entry, logic.TRUE, SKIP)
                return exit_
            if tok.text == "loop":
                self.advance()
                self.emit(self.parse_block(entry), entry, logic.TRUE, SKIP)
                return self.fresh()  # unreachable: the loop never exits
            if tok.text == "either":
                self.advance()
                first_entry, second_entry = self.branch(entry, logic.TRUE, logic.TRUE)
                first_exit = self.parse_block(first_entry)
                self.expect("keyword", "or")
                return self.join(first_exit, self.parse_block(second_entry))
            raise self.error(f"unexpected keyword {tok.text!r} in statement position")
        if tok.kind == "ident":
            target = self.advance().text
            self.expect("punct", ":=")
            expr = self.parse_aexpr(allow_trace_vars=False)
            self.expect("punct", ";")
            self.use([target, *_ordered_vars(expr)])
            return self.step(entry, Assign(target, expr))
        raise self.error(f"expected a statement, found {tok.shown()}")

    # -- specification ------------------------------------------------------

    def parse_spec(self) -> Tuple[List[_Quant], Formula]:
        quants = []
        while self.at("keyword", "forall") or self.at("keyword", "exists"):
            kind = self.advance().text
            trace_var = self.expect("ident").text
            self.expect("keyword", "in")
            program = self.expect("ident").text
            self.expect("keyword", "obs")
            self.expect("punct", "{")
            labels = [self.expect("ident").text]
            while self.at("punct", ","):
                self.advance()
                labels.append(self.expect("ident").text)
            self.expect("punct", "}")
            self.expect("punct", ".")
            quants.append((kind, trace_var, program, labels))
        if not quants:
            raise self.error("expected 'forall' or 'exists'")
        self.expect("keyword", "always")
        self.expect("punct", "(")
        body = self.parse_bexpr(allow_trace_vars=True)
        self.expect("punct", ")")
        return quants, body

    # -- expressions ----------------------------------------------------------

    def parse_bexpr(self, allow_trace_vars: bool) -> Formula:
        terms = [self.parse_bterm(allow_trace_vars)]
        while self.at("punct", "||"):
            self.advance()
            terms.append(self.parse_bterm(allow_trace_vars))
        return logic.disj(terms)

    def parse_bterm(self, allow_trace_vars: bool) -> Formula:
        factors = [self.parse_bfactor(allow_trace_vars)]
        while self.at("punct", "&&"):
            self.advance()
            factors.append(self.parse_bfactor(allow_trace_vars))
        return logic.conj(factors)

    def parse_bfactor(self, allow_trace_vars: bool) -> Formula:
        if self.at("punct", "!"):
            self.advance()
            return logic.negate(self.parse_bfactor(allow_trace_vars))
        if self.at("keyword", "true"):
            self.advance()
            return logic.TRUE
        if self.at("keyword", "false"):
            self.advance()
            return logic.FALSE
        if self.at("punct", "("):
            # A '(' opens either a nested boolean expression or the left
            # operand of a comparison; try the boolean reading first.
            saved = self.pos
            try:
                self.advance()
                inner = self.parse_bexpr(allow_trace_vars)
                self.expect("punct", ")")
                return inner
            except ParseError:
                self.pos = saved
        return self.parse_comparison(allow_trace_vars)

    def parse_comparison(self, allow_trace_vars: bool) -> Formula:
        left = self.parse_aexpr(allow_trace_vars)
        tok = self.peek()
        ops = {"==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
        if tok.kind != "punct" or tok.text not in ops:
            raise self.error(f"expected a comparison operator, found {tok.shown()}")
        self.advance()
        right = self.parse_aexpr(allow_trace_vars)
        return logic.cmp(ops[tok.text], left, right)

    def parse_aexpr(self, allow_trace_vars: bool) -> Term:
        left = self.parse_aterm(allow_trace_vars)
        while self.at("punct", "+") or self.at("punct", "-"):
            op = self.advance().text
            right = self.parse_aterm(allow_trace_vars)
            left = logic.add(left, right) if op == "+" else logic.sub(left, right)
        return left

    def parse_aterm(self, allow_trace_vars: bool) -> Term:
        left = self.parse_afactor(allow_trace_vars)
        while self.at("punct", "*") or self.at("punct", "/") or self.at("punct", "%"):
            tok = self.advance()
            right = self.parse_afactor(allow_trace_vars)
            try:
                if tok.text == "*":
                    left = logic.mul(left, right)
                elif tok.text == "/":
                    left = logic.div(left, right)
                else:
                    left = logic.mod(left, right)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        return left

    def parse_afactor(self, allow_trace_vars: bool) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            try:
                return logic.IntLit(int(tok.text))
            except ValueError:  # Python 3.11+ caps int/str conversion; the CLI lifts it
                raise ParseError(f"integer literal of {len(tok.text)} digits exceeds Python's "
                                 f"limit of {sys.get_int_max_str_digits()} digits",
                                 tok.line, tok.col) from None
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            return logic.neg(self.parse_afactor(allow_trace_vars))
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            inner = self.parse_aexpr(allow_trace_vars)
            self.expect("punct", ")")
            return inner
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.at("punct", "@"):
                if not allow_trace_vars:
                    raise ParseError("trace-indexed variables are only allowed in the "
                                     "specification body", tok.line, tok.col)
                self.advance()
                trace = self.expect("ident").text
                return logic.Var(f"{name}@{trace}")
            return logic.Var(name)
        raise self.error(f"expected an expression, found {tok.shown()}")


def _ordered_vars(node) -> List[str]:
    if isinstance(node, logic.Var):
        return [node.name]
    if isinstance(node, (logic.IntLit, logic.BoolLit)):
        return []
    if isinstance(node, logic.BinTerm):
        return _ordered_vars(node.left) + _ordered_vars(node.right)
    if isinstance(node, logic.Cmp):
        return _ordered_vars(node.left) + _ordered_vars(node.right)
    if isinstance(node, logic.Not):
        return _ordered_vars(node.arg)
    if isinstance(node, (logic.And, logic.Or)):
        out = []
        for a in node.args:
            out.extend(_ordered_vars(a))
        return out
    raise TypeError(f"unexpected node {node!r}")


# ---------------------------------------------------------------------------
# Whole-file parsing and validation
# ---------------------------------------------------------------------------

class LoadedSpec(Record):
    """A parsed and lowered input file, ready for the driver: each
    quantifier resolved to its program's graph and observed locations, and
    the body over variables named "x@pi"."""

    __slots__ = ("programs", "quantifiers", "body")


def load(source: str) -> LoadedSpec:
    """Parse and lower an input file; raises ParseError with position on
    bad input, and without one when the specification does not fit the
    programs."""
    try:
        programs, quants, body = _Parser(tokenize(source)).parse_file()
        _validate(programs, quants, body)
    except RecursionError:
        # The parser and the term walks recurse once per nesting level.
        raise ParseError("input nests too deeply to load "
                         "(Python's recursion limit was exceeded)") from None
    by_name = {p.graph.name: p for p in programs}
    quantifiers = []
    for kind, trace_var, program, labels in quants:
        lowered = by_name[program]
        observed: FrozenSet[int] = frozenset()
        for lab in labels:
            if lab not in lowered.labels:
                raise ParseError(
                    f"program {program!r} has no observation label {lab!r}")
            observed |= lowered.labels[lab]
        quantifiers.append(Quantifier(kind, trace_var, lowered.graph, observed))
    return LoadedSpec(by_name, tuple(quantifiers), body)


def _validate(programs: List[LoweredProgram], quants: List[_Quant], body: Formula) -> None:
    names = [p.graph.name for p in programs]
    for name in names:
        if names.count(name) > 1:
            raise ParseError(f"duplicate program name {name!r}")

    seen_exists = False
    for kind, _, _, _ in quants:
        if kind == "exists":
            seen_exists = True
        elif seen_exists:
            raise ParseError("unsupported quantifier prefix: all universal quantifiers "
                             "must precede all existential quantifiers")
    if quants[0][0] != "forall":
        raise ParseError("unsupported quantifier prefix: at least one leading "
                         "universal quantifier is required")
    trace_vars = [trace_var for _, trace_var, _, _ in quants]
    for tv in trace_vars:
        if trace_vars.count(tv) > 1:
            raise ParseError(f"duplicate trace variable {tv!r}")
    by_trace = {trace_var: program for _, trace_var, program, _ in quants}
    graphs = {p.graph.name: p.graph for p in programs}
    for _, _, program, _ in quants:
        if program not in graphs:
            raise ParseError(f"unknown program {program!r} in quantifier")

    for name in sorted(logic.free_vars(body)):
        if "@" not in name:
            raise ParseError(f"specification variable {name!r} is not trace-indexed "
                             f"(write x@{trace_vars[0]})")
        var, trace = name.rsplit("@", 1)
        if trace not in by_trace:
            raise ParseError(f"unknown trace variable {trace!r} in specification body")
        if var not in graphs[by_trace[trace]].variables:
            raise ParseError(f"variable {var!r} is not a variable of program "
                             f"{by_trace[trace]!r}")
