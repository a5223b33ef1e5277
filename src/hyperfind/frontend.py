"""Surface language: parsing and lowering to program graphs.

An input file is a list of program definitions followed by one trace
specification. Programs are structured imperative code (assignment, havoc,
if/else, while, loop, either/or, observe, skip); the specification is a
forall*/exists* quantifier prefix binding trace variables to programs with
observation label sets, followed by a single `always (...)` invariant over
trace-indexed variables written `x@pi`. The full grammar is documented in
the README.

`parse` returns the syntax tree. `load` also lowers each program to a graph
and resolves each quantifier once, to a `graph.Quantifier` over its
program's graph and the locations of its observation labels: the form that
the search and the oracle both take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import logic
from .graph import Assign, Edge, Havoc, ProgramGraph, Quantifier, SKIP
from .logic import Formula, Term


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

_PUNCT = [
    ":=", "==", "!=", "<=", ">=", "&&", "||",
    "{", "}", "(", ")", ";", ".", ",", "@",
    "<", ">", "+", "-", "*", "/", "%", "!",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "punct", "keyword", "eof"
    text: str
    line: int
    col: int


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
            while i < n and source[i] != "\n":
                i += 1
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
        if c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("int", source[start:i], line, col))
            col += i - start
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SAssign:
    target: str
    expr: Term


@dataclass(frozen=True)
class SHavoc:
    target: str


@dataclass(frozen=True)
class SSkip:
    pass


@dataclass(frozen=True)
class SObserve:
    label: str


@dataclass(frozen=True)
class SIf:
    cond: Formula
    then_body: tuple
    else_body: tuple


@dataclass(frozen=True)
class SWhile:
    cond: Formula
    body: tuple


@dataclass(frozen=True)
class SLoop:
    body: tuple


@dataclass(frozen=True)
class SEither:
    first: tuple
    second: tuple


@dataclass(frozen=True)
class ProgramAst:
    name: str
    body: tuple


@dataclass(frozen=True)
class SpecQuant:
    kind: str  # "forall" | "exists"
    trace_var: str
    program: str
    labels: Tuple[str, ...]


@dataclass(frozen=True)
class SpecAst:
    quantifiers: Tuple[SpecQuant, ...]
    body: Formula  # over variables named "x@pi"


@dataclass(frozen=True)
class InputFile:
    programs: Tuple[ProgramAst, ...]
    spec: SpecAst


class _Parser:
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
            raise self.error(f"expected {want!r}, found {tok.text!r}")
        return self.advance()

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    # -- file ---------------------------------------------------------------

    def parse_file(self) -> InputFile:
        programs = []
        while self.at("keyword", "prog"):
            programs.append(self.parse_program())
        if self.at("eof"):
            raise self.error("no specification (expected 'forall' after program definitions)")
        spec = self.parse_spec()
        self.expect("eof")
        return InputFile(tuple(programs), spec)

    def parse_program(self) -> ProgramAst:
        self.expect("keyword", "prog")
        name = self.expect("ident").text
        body = self.parse_block()
        return ProgramAst(name, body)

    def parse_block(self) -> tuple:
        self.expect("punct", "{")
        stmts = []
        while not self.at("punct", "}"):
            stmts.append(self.parse_stmt())
        self.expect("punct", "}")
        return tuple(stmts)

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text in ("havoc", "input"):
                self.advance()
                target = self.expect("ident").text
                self.expect("punct", ";")
                return SHavoc(target)
            if tok.text == "skip":
                self.advance()
                self.expect("punct", ";")
                return SSkip()
            if tok.text == "observe":
                self.advance()
                label = self.expect("ident").text
                self.expect("punct", ";")
                return SObserve(label)
            if tok.text == "if":
                self.advance()
                self.expect("punct", "(")
                cond = self.parse_bexpr(allow_trace_vars=False)
                self.expect("punct", ")")
                then_body = self.parse_block()
                else_body: tuple = ()
                if self.at("keyword", "else"):
                    self.advance()
                    else_body = self.parse_block()
                return SIf(cond, then_body, else_body)
            if tok.text == "while":
                self.advance()
                self.expect("punct", "(")
                cond = self.parse_bexpr(allow_trace_vars=False)
                self.expect("punct", ")")
                return SWhile(cond, self.parse_block())
            if tok.text == "loop":
                self.advance()
                return SLoop(self.parse_block())
            if tok.text == "either":
                self.advance()
                first = self.parse_block()
                self.expect("keyword", "or")
                second = self.parse_block()
                return SEither(first, second)
            raise self.error(f"unexpected keyword {tok.text!r} in statement position")
        if tok.kind == "ident":
            target = self.advance().text
            self.expect("punct", ":=")
            expr = self.parse_aexpr(allow_trace_vars=False)
            self.expect("punct", ";")
            return SAssign(target, expr)
        raise self.error(f"expected a statement, found {tok.text!r}")

    # -- specification ------------------------------------------------------

    def parse_spec(self) -> SpecAst:
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
            quants.append(SpecQuant(kind, trace_var, program, tuple(labels)))
        if not quants:
            raise self.error("expected 'forall' or 'exists'")
        self.expect("keyword", "always")
        self.expect("punct", "(")
        body = self.parse_bexpr(allow_trace_vars=True)
        self.expect("punct", ")")
        return SpecAst(tuple(quants), body)

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
            raise self.error(f"expected a comparison operator, found {tok.text!r}")
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
            return logic.IntLit(int(tok.text))
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
        raise self.error(f"expected an expression, found {tok.text!r}")


def collect_vars(ast: ProgramAst) -> Tuple[str, ...]:
    """Program variables in first-use order (implicitly declared, start at 0)."""
    seen: Dict[str, None] = {}

    def add_term_vars(node):
        for v in _ordered_vars(node):
            seen.setdefault(v, None)

    def walk(stmts):
        for s in stmts:
            if isinstance(s, SAssign):
                seen.setdefault(s.target, None)
                add_term_vars(s.expr)
            elif isinstance(s, SHavoc):
                seen.setdefault(s.target, None)
            elif isinstance(s, SIf):
                add_term_vars(s.cond)
                walk(s.then_body)
                walk(s.else_body)
            elif isinstance(s, SWhile):
                add_term_vars(s.cond)
                walk(s.body)
            elif isinstance(s, SLoop):
                walk(s.body)
            elif isinstance(s, SEither):
                walk(s.first)
                walk(s.second)

    walk(ast.body)
    return tuple(seen)


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
# Lowering
# ---------------------------------------------------------------------------

@dataclass
class LoweredProgram:
    graph: ProgramGraph
    labels: Dict[str, FrozenSet[int]]


def lower(ast: ProgramAst) -> LoweredProgram:
    """Standard CFG construction, one observed location per observe statement.

    if yields two guarded skip edges (cond first); while yields the loop
    edge before the exit edge; either declares its first block first. Both
    branches of if/either rejoin through balanced skip edges so that equal
    length branches stay aligned in breadth-first exploration.
    """
    edges: List[Edge] = []
    labels: Dict[str, set] = {}
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def emit(src: int, dst: int, guard: Formula, effect) -> None:
        edges.append(Edge(src, dst, guard, effect))

    def lower_block(stmts, entry: int) -> int:
        at = entry
        for s in stmts:
            at = lower_stmt(s, at)
        return at

    def lower_stmt(s, entry: int) -> int:
        if isinstance(s, SAssign):
            exit_ = fresh()
            emit(entry, exit_, logic.TRUE, Assign(s.target, s.expr))
            return exit_
        if isinstance(s, SHavoc):
            exit_ = fresh()
            emit(entry, exit_, logic.TRUE, Havoc(s.target))
            return exit_
        if isinstance(s, SSkip):
            exit_ = fresh()
            emit(entry, exit_, logic.TRUE, SKIP)
            return exit_
        if isinstance(s, SObserve):
            obs = fresh()
            emit(entry, obs, logic.TRUE, SKIP)
            labels.setdefault(s.label, set()).add(obs)
            return obs
        if isinstance(s, SIf):
            then_entry = fresh()
            else_entry = fresh()
            emit(entry, then_entry, s.cond, SKIP)
            emit(entry, else_entry, logic.negate(s.cond), SKIP)
            then_exit = lower_block(s.then_body, then_entry)
            else_exit = lower_block(s.else_body, else_entry)
            join = fresh()
            emit(then_exit, join, logic.TRUE, SKIP)
            emit(else_exit, join, logic.TRUE, SKIP)
            return join
        if isinstance(s, SWhile):
            head = entry
            body_entry = fresh()
            exit_ = fresh()
            emit(head, body_entry, s.cond, SKIP)
            emit(head, exit_, logic.negate(s.cond), SKIP)
            body_exit = lower_block(s.body, body_entry)
            emit(body_exit, head, logic.TRUE, SKIP)
            return exit_
        if isinstance(s, SLoop):
            head = entry
            body_exit = lower_block(s.body, head)
            emit(body_exit, head, logic.TRUE, SKIP)
            return fresh()  # unreachable: the loop never exits
        if isinstance(s, SEither):
            first_entry = fresh()
            second_entry = fresh()
            emit(entry, first_entry, logic.TRUE, SKIP)
            emit(entry, second_entry, logic.TRUE, SKIP)
            first_exit = lower_block(s.first, first_entry)
            second_exit = lower_block(s.second, second_entry)
            join = fresh()
            emit(first_exit, join, logic.TRUE, SKIP)
            emit(second_exit, join, logic.TRUE, SKIP)
            return join
        raise TypeError(f"unexpected statement {s!r}")

    initial = fresh()
    lower_block(ast.body, initial)
    graph = ProgramGraph(
        name=ast.name,
        locations=tuple(range(counter[0])),
        edges=tuple(edges),
        initial=initial,
        variables=collect_vars(ast),
    )
    return LoweredProgram(graph, {lab: frozenset(locs) for lab, locs in labels.items()})


# ---------------------------------------------------------------------------
# Whole-file parsing and validation
# ---------------------------------------------------------------------------

@dataclass
class LoadedSpec:
    """A parsed and lowered input file, ready for the driver: each
    quantifier resolved to its program's graph and observed locations."""
    programs: Dict[str, LoweredProgram]
    quantifiers: Tuple[Quantifier, ...]
    body: Formula  # over variables named "x@pi"


def parse(source: str) -> InputFile:
    """Parse an input file; raises ParseError with position on bad input."""
    parser = _Parser(tokenize(source))
    parsed = parser.parse_file()
    _validate(parsed)
    return parsed


def load(source: str) -> LoadedSpec:
    try:
        parsed = parse(source)
        programs = {p.name: lower(p) for p in parsed.programs}
    except RecursionError:
        # The parser and the term walks recurse once per nesting level.
        raise ParseError("input nests too deeply to load "
                         "(Python's recursion limit was exceeded)") from None
    quantifiers = []
    for quant in parsed.spec.quantifiers:
        lowered = programs[quant.program]
        observed: FrozenSet[int] = frozenset()
        for lab in quant.labels:
            if lab not in lowered.labels:
                raise ParseError(
                    f"program {quant.program!r} has no observation label {lab!r}")
            observed |= lowered.labels[lab]
        quantifiers.append(Quantifier(quant.kind, quant.trace_var, lowered.graph, observed))
    return LoadedSpec(programs, tuple(quantifiers), parsed.spec.body)


def _validate(parsed: InputFile) -> None:
    names = [p.name for p in parsed.programs]
    for name in names:
        if names.count(name) > 1:
            raise ParseError(f"duplicate program name {name!r}")

    quants = parsed.spec.quantifiers
    seen_exists = False
    for q in quants:
        if q.kind == "exists":
            seen_exists = True
        elif seen_exists:
            raise ParseError("unsupported quantifier prefix: all universal quantifiers "
                             "must precede all existential quantifiers")
    if quants[0].kind != "forall":
        raise ParseError("unsupported quantifier prefix: at least one leading "
                         "universal quantifier is required")
    trace_vars = [q.trace_var for q in quants]
    for tv in trace_vars:
        if trace_vars.count(tv) > 1:
            raise ParseError(f"duplicate trace variable {tv!r}")
    by_trace = {q.trace_var: q for q in quants}
    progs = {p.name: p for p in parsed.programs}
    for q in quants:
        if q.program not in progs:
            raise ParseError(f"unknown program {q.program!r} in quantifier")

    for name in sorted(logic.free_vars(parsed.spec.body)):
        if "@" not in name:
            raise ParseError(f"specification variable {name!r} is not trace-indexed "
                             f"(write x@{trace_vars[0]})")
        var, trace = name.rsplit("@", 1)
        if trace not in by_trace:
            raise ParseError(f"unknown trace variable {trace!r} in specification body")
        prog_vars = collect_vars(progs[by_trace[trace].program])
        if var not in prog_vars:
            raise ParseError(f"variable {var!r} is not a variable of program "
                             f"{by_trace[trace].program!r}")
