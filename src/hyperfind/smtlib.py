"""The bundled solver's text route: SMT-LIB2 text in, one reply line out.

Only a process that reads or writes SMT-LIB2 text imports this module: the
bundled solver run as a child (`hyperfind-smt`, or `python -m
hyperfind.refsolver`, whose `main` starts `run` here), and the bridge's pipe
to a child solver, which reads a `get-value` reply with `parse_sexprs` and
`read_term` and asks `balance` whether a reply is still open. A search that
runs the bundled solver in its own process hands it command values and
never imports this module.

`run` reads a command up to the line that closes it, parses it, turns it
into the command value that `refsolver.dispatch` takes (`read_command`),
and writes the reply. n-ary `+` and `-` nest into binary nodes, `(- t)`
reads as `0 - t`, and `(=> a b c)` reads as `(or (not a) (or (not b) c))`,
since `logic` has no implication.

The loop accepts exactly these commands: `set-logic` (ignored),
`set-option` (only `:timeout` in milliseconds takes effect),
`declare-const` of sort Int, `assert`, `push` and `pop` with an optional
count, `check-sat`, `get-value`, `reset` and `exit`. Terms are Int
constants and literals, `+`, `-`, `*` by a literal, `div`/`mod` by a
positive literal, the comparisons `< <= > >= = distinct`, `true`,
`false`, `and`, `or`, `not`, `=>`, and `exists`/`forall` over distinct
Int binders. `get-value` answers only if the last `check-sat` answered
`sat` and no `assert`, `push`, `pop` or `reset` came after it, and only
for declared constants; one the model leaves out reads 0. Any other
command, or a malformed one, is answered with `(error "...")`, and the
loop reads on.

The reader is independent of the bridge's printer (`smt.formula_to_smt`);
the tests check that a printed formula, read back, translates to the same
node as the formula itself.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import List, Optional

from . import logic
from .logic import And, BinTerm, BoolLit, Cmp, IntLit, Not, Or, Quant, SolverInputError, Var


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

# Whitespace, a comment, or a token: a parenthesis, a |quoted| symbol, a
# "string" (to the end of the text if unterminated), or any other run.
_TOKEN = re.compile(r'\s+|;[^\n]*|([()]|\|[^|]*\||"[^"]*"?|[^\s();]+)')


def tokenize_sexpr(text: str) -> List[str]:
    tokens = [token for token in _TOKEN.findall(text) if token]
    if any(token[0] == "|" and token.count("|") == 1 for token in tokens):
        raise SolverInputError("unterminated quoted symbol")
    return tokens


def balance(text: str) -> Optional[int]:
    """The parentheses that `text` opens less those it closes, or None while
    a |quoted| symbol is open. A parenthesis in a comment, a quoted symbol
    or a string does not count."""
    try:
        tokens = tokenize_sexpr(text)
    except SolverInputError:
        return None
    return tokens.count("(") - tokens.count(")")


def parse_sexprs(text: str) -> List[object]:
    stack: List[list] = [[]]
    for token in tokenize_sexpr(text):
        if token == "(":
            stack.append([])
        elif token != ")":
            stack[-1].append(token)
        elif len(stack) > 1:
            done = stack.pop()
            stack[-1].append(done)
        else:
            raise SolverInputError("unexpected ')'")
    if len(stack) > 1:
        raise SolverInputError("unbalanced parentheses")
    return stack[0]


# ---------------------------------------------------------------------------
# Command loop
# ---------------------------------------------------------------------------

def run(instream=None, outstream=None) -> int:
    """The stand-alone loop: SMT-LIB2 text in, one reply line per answer."""
    from .refsolver import Session, dispatch  # a reply reader needs no solver

    instream = instream or sys.stdin
    outstream = outstream or sys.stdout
    session = Session()

    def reply(text: str):
        outstream.write(text + "\n")
        outstream.flush()

    # The text since the last command, and the depth after its first `scanned` characters.
    buffer, depth, scanned = "", 0, 0
    while True:
        line = instream.readline()
        buffer += line
        if line:
            # Read on while a command is open; a |quoted| symbol may end on
            # a later line.
            opened = balance(buffer[scanned:])
            if opened is None:
                continue
            depth += opened
            scanned = len(buffer)
            if depth > 0:
                continue
        elif not buffer:
            return 0
        # At the end of the input, an open command is parsed: its error is the reply.
        text, buffer, depth, scanned = buffer, "", 0, 0
        try:
            trees = parse_sexprs(text)
        except SolverInputError as exc:
            reply(f'(error "{exc}")')
            continue
        for tree in trees:
            try:
                result = dispatch(session, read_command(tree))
            except SolverInputError as exc:
                reply(f'(error "{exc}")')
                continue
            if result == "#exit":
                return 0
            if isinstance(result, dict):
                reply("(" + " ".join(f"({name} {value})" if value >= 0 else f"({name} (- {-value}))"
                                     for name, value in result.items()) + ")")
            elif result is not None:
                reply(result)


def main() -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Python 3.11+ caps int/str conversion at 4,300 digits; the literals
        # of a command and the values of a model may have any number.
        sys.set_int_max_str_digits(0)
    return run()


# ---------------------------------------------------------------------------
# Reading SMT-LIB2 trees into command values
# ---------------------------------------------------------------------------

_READ_COMPARISONS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=", "distinct": "!="}


def _count(token) -> int:
    if not (isinstance(token, str) and token.isascii() and token.isdigit()):
        raise SolverInputError(f"expected a numeral, got {token!r}")
    return int(token)


def read_term(tree):
    """A `logic` term: n-ary `+`/`-` nest to the left, and `(- t)` is `0 - t`."""
    if isinstance(tree, str):
        digits = tree[1:] if tree[:1] == "-" else tree
        return IntLit(int(tree)) if digits.isascii() and digits.isdigit() else Var(tree)
    head, args = (tree[0], [read_term(a) for a in tree[1:]]) if tree else (None, [])
    if head == "+":
        return functools.reduce(logic.add, args, IntLit(0))
    if head == "-" and args:
        return functools.reduce(logic.sub, args[1:], args[0]) if args[1:] else logic.neg(args[0])
    if head in ("*", "div", "mod") and len(args) == 2:
        return BinTerm(head, *args)
    raise SolverInputError(f"malformed term {tree!r}")


def read_formula(tree):
    """A `logic` formula: `(=> a b c)` reads as `(or (not a) (or (not b) c))`."""
    if tree in ("true", "false"):
        return BoolLit(tree == "true")
    if isinstance(tree, str) or not tree or not isinstance(tree[0], str):
        raise SolverInputError(f"expected a boolean term, got {tree!r}")
    head, args = tree[0], tree[1:]
    if head in _READ_COMPARISONS and len(args) == 2:
        return Cmp(_READ_COMPARISONS[head], read_term(args[0]), read_term(args[1]))
    if head in ("forall", "exists") and len(args) == 2 and isinstance(args[0], list):
        names = tuple(b[0] for b in args[0]
                      if isinstance(b, list) and b[1:] == ["Int"] and isinstance(b[0], str))
        if len(set(names)) != len(args[0]):
            raise SolverInputError(f"{head} expects distinct Int binders")
        return Quant(head, names, read_formula(args[1]))
    parts = [read_formula(a) for a in args]
    if head in ("and", "or"):
        return (And if head == "and" else Or)(tuple(parts))
    if head == "not" and len(parts) == 1:
        return Not(parts[0])
    if head == "=>" and parts:
        return functools.reduce(lambda right, left: Or((Not(left), right)), reversed(parts))
    raise SolverInputError(f"malformed formula {tree!r}")


def read_command(tree) -> tuple:
    """The command value of one parsed command, as `refsolver.dispatch` takes it."""
    head, args = (tree[0], tree[1:]) if isinstance(tree, list) and tree else (None, [])
    if head == "assert" and len(args) == 1:
        return (head, read_formula(args[0]))
    if head == "declare-const" and args[1:] == ["Int"] and isinstance(args[0], str):
        return (head, args[0])
    if head in ("push", "pop"):
        return (head, _count(args[0]) if args else 1)
    if head == "set-option" and args[:1] == [":timeout"] and len(args) == 2:
        return (head, ":timeout", _count(args[1]))
    if head == "get-value" and len(args) == 1 and isinstance(args[0], list) \
            and all(isinstance(name, str) for name in args[0]):
        return (head, args[0])
    if head in ("set-option", "set-logic", "check-sat", "reset", "exit"):
        return (head,)
    raise SolverInputError(f"malformed command {tree!r}")
