"""Bridge to an SMT solver: SMT-LIB2 commands as values.

`SolverSession` is the one session protocol (level-0 declarations, then
push, assert, check-sat, get-value, model completion, pop). It builds each
command once, as a tuple that carries `logic` nodes: `("set-logic", name)`,
`("set-option", ":timeout", ms)`, `("declare-const", name)`,
`("assert", formula)`, `("push", 1)`, `("pop", 1)`, `("check-sat",)`,
`("get-value", names)` and `("reset",)`. A transport is `_start`, `_ask`,
`_alive` and `close`: `_ask(command, deadline)` runs one command and
returns its reply, which is None, the `check-sat` answer or the
`get-value` model. The pipe to a child process prints each command
(`command_to_smt`) and reads back only those two replies, with the text
reader of `smtlib`; a missed deadline kills the child. `InProcessSession`
runs each command through the bundled solver's `dispatch` in this
process, so no text is written or read, and its deadline is cooperative.
Integer literals print in decimal, negatives as `(- n)`. `query_script`
prints the same commands for `--emit-smt`. `Solver` is what a search
talks to: one lazily started session, restarted once on a failure.

`resolve_solver` picks yices-smt2, z3, or cvc5 from PATH and falls back to
the bundled reference solver (`hyperfind.refsolver`) so the tool works on
machines without a mainstream solver installed. The bundled solver runs in
this process; every other solver is a child. To run the bundled solver as
an isolated, killable process, name it as the solver:
`--solver $(command -v hyperfind-smt)`.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from . import logic
from .logic import (And, BinTerm, BoolLit, Cmp, Formula, FrozenRecord, IntLit, Not, Or,
                    Quant, Term, Var, set_field)

DEFAULT_FEASIBILITY_TIMEOUT_MS = 5000
DEFAULT_QUERY_TIMEOUT_MS = 60000
LOGIC = "LIA"


class SolverError(Exception):
    """Transport-level failure: crash, malformed output, broken pipe."""


class Sat(FrozenRecord):
    __slots__ = ("model",)

    def __init__(self, model: Dict[str, int]):
        set_field(self, "model", model)


class Unsat(FrozenRecord):
    __slots__ = ()


class Unknown(FrozenRecord):
    __slots__ = ("reason",)


SatResult = Union[Sat, Unsat, Unknown]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CMP_SMT = {"=": "=", "!=": "distinct", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def term_to_smt(term: Term) -> str:
    if isinstance(term, IntLit):
        return str(term.value) if term.value >= 0 else f"(- {-term.value})"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, BinTerm):
        return f"({term.op} {term_to_smt(term.left)} {term_to_smt(term.right)})"
    raise TypeError(f"not a term: {term!r}")


def formula_to_smt(formula: Formula) -> str:
    if isinstance(formula, BoolLit):
        return "true" if formula.value else "false"
    if isinstance(formula, Cmp):
        return f"({_CMP_SMT[formula.op]} {term_to_smt(formula.left)} {term_to_smt(formula.right)})"
    if isinstance(formula, Not):
        return f"(not {formula_to_smt(formula.arg)})"
    if isinstance(formula, And):
        return "(and " + " ".join(formula_to_smt(a) for a in formula.args) + ")"
    if isinstance(formula, Or):
        return "(or " + " ".join(formula_to_smt(a) for a in formula.args) + ")"
    if isinstance(formula, Quant):
        binders = " ".join(f"({v} Int)" for v in formula.vars)
        return f"({formula.kind} ({binders}) {formula_to_smt(formula.body)})"
    raise TypeError(f"not a formula: {formula!r}")


def command_to_smt(command: tuple) -> str:
    """The SMT-LIB2 text of a command value."""
    head = command[0]
    if head == "assert":
        return f"(assert {formula_to_smt(command[1])})"
    if head == "declare-const":
        return f"(declare-const {command[1]} Int)"
    if head == "get-value":
        return "(get-value (" + " ".join(command[1]) + "))"
    return "(" + " ".join(map(str, command)) + ")"


def query_script(formula: Formula, wanted: Sequence[str] = ()) -> str:
    """Complete standalone SMT-LIB2 script for one query (for --emit-smt)."""
    names = sorted(logic.free_vars(formula) | set(wanted))
    commands = [("set-logic", LOGIC), *(("declare-const", v) for v in names),
                ("assert", formula), ("check-sat",)]
    if wanted:
        commands.append(("get-value", sorted(wanted)))
    return "".join(command_to_smt(command) + "\n" for command in commands)


# ---------------------------------------------------------------------------
# Solver discovery
# ---------------------------------------------------------------------------

def _argv_for(path: str) -> List[str]:
    base = os.path.basename(path)
    if "yices" in base:
        return [path, "--incremental"]
    if "z3" in base:
        return [path, "-in"]
    if "cvc5" in base or "cvc4" in base:
        return [path, "--incremental", "--produce-models", "--lang", "smt2"]
    return [path]


# The fallback argv. `Solver` runs it in-process; spelled any other way (for
# example as the `hyperfind-smt` script) the bundled solver is a child.
BUNDLED_SOLVER = (sys.executable, "-m", "hyperfind.refsolver")


# The value of PATH -> the solver found on it.
_found_on_path: Dict[Optional[str], List[str]] = {}


def resolve_solver(path: Optional[str] = None) -> List[str]:
    """Argument vector of the solver: the given path, else the first of
    yices-smt2/z3/cvc5 on PATH, else `BUNDLED_SOLVER`. PATH is searched
    once per value it takes."""
    if path:
        return _argv_for(path)
    key = os.environ.get("PATH")
    if key not in _found_on_path:
        found = next(filter(None, map(shutil.which, ("yices-smt2", "z3", "cvc5"))), None)
        _found_on_path[key] = _argv_for(found) if found else list(BUNDLED_SOLVER)
    return list(_found_on_path[key])


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

class SolverSession:
    """The SMT-LIB2 session protocol, here over a pipe to a child process. A
    subclass changes the transport by replacing `_start`, `_ask`, `_alive`
    and `close`."""

    def __init__(self, argv: Sequence[str], timeout_ms: int = DEFAULT_QUERY_TIMEOUT_MS):
        self.argv = list(argv)
        self.timeout_ms = timeout_ms
        self.declared: Set[str] = set()
        self._start()
        try:
            self._configure()
        except SolverError:
            self.close()
            raise

    def _configure(self):
        self._ask(("set-logic", LOGIC))
        # Only z3 and the bundled solver take :timeout (milliseconds); other
        # solvers would answer with an error line and desynchronize the pipe.
        # The Python-side deadline in check() is the real enforcement.
        joined = " ".join(self.argv)
        if self.timeout_ms and ("z3" in os.path.basename(self.argv[0]) or "refsolver" in joined):
            self._ask(("set-option", ":timeout", self.timeout_ms))

    # -- transport: a pipe to a child process --------------------------------

    def _start(self):
        import subprocess  # only a child solver needs it

        self._buffer = b""
        try:
            self.proc = subprocess.Popen(
                self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL)
        except OSError as exc:
            raise SolverError(f"cannot start solver {self.argv}: {exc}") from None

    def _alive(self) -> bool:
        return self.proc.poll() is None

    def _ask(self, command: tuple, deadline: Optional[float] = None):
        """Run one command; returns its reply by the deadline: None, the
        `check-sat` answer, or the `get-value` model."""
        if not self._alive():
            raise SolverError("solver process has exited")
        try:
            self.proc.stdin.write((command_to_smt(command) + "\n").encode())
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SolverError(f"solver pipe broken: {exc}") from None
        if command[0] == "check-sat":
            return self._read_line(deadline)
        if command[0] != "get-value":
            return None
        text = self._read_line(deadline)
        while _open(text):
            text += " " + self._read_line(deadline)
        return _parse_values(text)

    def _read_line(self, deadline: float) -> str:
        import select

        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill()
                raise TimeoutError()
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.25))
            if not ready:
                if not self._alive():
                    raise SolverError("solver process exited unexpectedly")
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise SolverError("solver closed its output stream")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode().strip()

    def _kill(self):
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()

    def close(self):
        import subprocess

        if self._alive():
            try:
                self.proc.stdin.write(b"(exit)\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                self._kill()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # unflushed bytes into a dead process; the fd is closed anyway

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- SMT-LIB2 protocol ---------------------------------------------------

    def declare(self, names: Iterable[str]):
        for name in sorted(set(names) - self.declared):
            self._ask(("declare-const", name))
            self.declared.add(name)

    def assert_formula(self, formula: Formula):
        self._ask(("assert", formula))

    def push(self):
        self._ask(("push", 1))

    def pop(self):
        self._ask(("pop", 1))

    def reset(self):
        self._ask(("reset",))
        self.declared = set()
        self._configure()

    def check(self, wanted: Sequence[str] = (),
              timeout_ms: Optional[int] = None) -> SatResult:
        timeout_ms = timeout_ms if timeout_ms is not None else self.timeout_ms
        deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            answer = self._ask(("check-sat",), deadline)
        except TimeoutError:
            return Unknown("timeout")
        if answer == "unsat":
            return Unsat()
        if answer == "unknown":
            return Unknown("solver returned unknown")
        if answer.startswith("(error"):
            raise SolverError(f"solver error: {answer}")
        if answer != "sat":
            raise SolverError(f"unexpected solver answer {answer!r}")
        model: Dict[str, int] = {}
        wanted = sorted(set(wanted))
        if wanted:
            try:
                model = self._ask(("get-value", wanted), deadline)
            except TimeoutError:
                return Unknown("timeout")
        # Model completion: solvers may omit don't-cares; default them to 0.
        for name in wanted:
            model.setdefault(name, 0)
        return Sat(model)

    def check_formula(self, formula: Formula, wanted: Sequence[str] = (),
                      timeout_ms: Optional[int] = None) -> SatResult:
        """push; declare+assert formula; check; pop."""
        self.declare(logic.free_vars(formula) | set(wanted))
        self.push()
        try:
            self.assert_formula(formula)
            return self.check(wanted, timeout_ms)
        finally:
            if self._alive():
                self.pop()


def _open(text: str) -> bool:
    """Whether a reply leaves a parenthesis or a |quoted| symbol open."""
    from . import smtlib  # the package's one SMT-LIB2 reader
    opened = smtlib.balance(text)  # ( in |a(| or "(" is no token
    return opened is None or opened > 0


def _parse_values(text: str) -> Dict[str, int]:
    """The model in a child's get-value reply, such as `((x 5) (y (- 3)))`."""
    from . import smtlib  # the package's one SMT-LIB2 reader
    try:
        (entries,) = smtlib.parse_sexprs(text)
        model = {name: smtlib.read_term(value) for name, value in entries}
    except (logic.SolverInputError, TypeError, ValueError):
        raise SolverError(f"malformed get-value response: {text!r}") from None
    if not all(isinstance(value, IntLit) for value in model.values()):
        raise SolverError(f"non-integer model value in {text!r}")
    return {name: value.value for name, value in model.items()}


class InProcessSession(SolverSession):
    """`SolverSession` over the bundled solver's command loop in this process.

    `_ask` runs each command value through `refsolver.dispatch` at once; its
    replies are values too (an answer string, or a model for `get-value`).
    The time left to a reply's deadline is the solver's cooperative timeout,
    and its only `unknown` is that timeout. An exception out of the solver
    is a `SolverError`. A timeout, a failure or `close` drops the solver, as
    a kill ends a child."""

    def _start(self):
        # Imported here so that importing this module does not pay for the solver.
        from . import refsolver
        self._refsolver = refsolver
        self._solver: Optional[refsolver.Session] = refsolver.Session()

    def _alive(self) -> bool:
        return self._solver is not None

    def _ask(self, command: tuple, deadline: Optional[float] = None):
        if not self._alive():
            raise SolverError("bundled solver has stopped")
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise TimeoutError()
            self._solver.timeout_ms = 1000.0 * remaining
        try:
            reply = self._refsolver.dispatch(self._solver, command)
        except Exception as exc:  # solver bug or resource limit: fail the check, not the search
            self.close()
            raise SolverError(f"bundled solver failed: {type(exc).__name__}: {exc}") from None
        if reply == "unknown":
            self.close()
            raise TimeoutError()
        return reply

    def close(self):
        self._solver = None


class Solver:
    """The one solver of a search.

    The session starts on the first check: an `InProcessSession` when the
    solver is `BUNDLED_SOLVER`, else a `SolverSession` on a child process.
    Path-feasibility checks and per-trace queries share it through
    `check_formula`. A failure closes the session and retries the check once
    on a fresh one; a second failure is raised. A timed-out check drops the
    session, and the next check starts a new one.
    """

    def __init__(self, argv: Optional[Sequence[str]] = None,
                 timeout_ms: int = DEFAULT_QUERY_TIMEOUT_MS):
        self.argv = argv
        self.timeout_ms = timeout_ms
        self.session: Optional[SolverSession] = None

    def check(self, formula: Formula, wanted: Sequence[str] = (),
              timeout_ms: Optional[int] = None) -> SatResult:
        try:
            result = self._session().check_formula(formula, wanted, timeout_ms)
        except SolverError:
            self.close()
            result = self._session().check_formula(formula, wanted, timeout_ms)
        if result == Unknown("timeout"):
            self.close()
        return result

    def _session(self) -> SolverSession:
        if self.session is None:
            argv = list(self.argv) if self.argv else resolve_solver()
            transport = InProcessSession if argv == list(BUNDLED_SOLVER) else SolverSession
            self.session = transport(argv, self.timeout_ms)
        return self.session

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
