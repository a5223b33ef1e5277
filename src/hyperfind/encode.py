"""First-order encodings of trace specifications over symbolic traces.

Universal trace quantification becomes a conjunction over the finite set of
observed symbolic traces, each wrapped in a forall over its fresh
variables; existential quantification dually becomes a disjunction of
exists blocks. The invariant body is instantiated at every observation
index by substituting each trace-indexed variable `x@pi` with the bound
trace's symbolic memory term for `x`.

`lazy_query` builds the per-universal-trace refutation query: the
universal path constraint conjoined with "no existential trace matches";
its free variables are exactly the universal trace's fresh variables, so a
model concretizes directly into a counterexample trace.

Everything in that query that depends on one existential trace alone is
prepared once per bound k by `prepare_existential`: the trace's fresh
variables, its path conjoined with the domain constraint, and the terms
its memories give the body's existential variables; the checks that the
trace can be bound in the body run there too. Per observation index,
existential traces whose memories give those variables equal terms share
one instantiation of the body. A query then substitutes the universal
trace's memory into the body once per index and the existential memories
once per such class, not once per (trace, index) pair. A trace with an
instantiation that folds to false has a block that folds to true, so the
query never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import logic
from .logic import Formula, Term
from .symexec import SymTrace


class EncodingError(Exception):
    pass


def _body_slots(body: Formula) -> List[Tuple[str, str, str]]:
    """(full name, program variable, trace variable) per free body variable."""
    slots = []
    for name in sorted(logic.free_vars(body)):
        if "@" not in name:
            raise EncodingError(f"specification variable {name!r} is not trace-indexed")
        var, trace = name.rsplit("@", 1)
        slots.append((name, var, trace))
    return slots


def _image(trace: SymTrace, trace_var: str, var: str, i: int) -> Term:
    """The term that `trace`, bound to `trace_var`, gives `var` at observation i."""
    if len(trace.observed) <= i:
        raise EncodingError(
            f"trace bound to {trace_var!r} has fewer than {i + 1} observations")
    memory = trace.observed[i].memory()
    if var not in memory:
        raise EncodingError(
            f"program bound to {trace_var!r} has no variable {var!r}")
    return memory[var]


def _images(trace: SymTrace, trace_var: str, own: Sequence[Tuple[str, str]], k: int,
            rho: Optional[Dict[str, Term]] = None) -> List[Dict[str, Term]]:
    """Per observation index i < k, the terms that `trace`, bound to
    `trace_var`, gives the body variables `own` ((full name, program
    variable) pairs), renamed by `rho` when it is given."""
    images = []
    for i in range(k):
        sigma = {name: _image(trace, trace_var, var, i) for name, var in own}
        if rho is not None:
            sigma = {name: logic.substitute(term, rho) for name, term in sigma.items()}
        images.append(sigma)
    return images


def _instantiate(body: Formula, k: int, slots: Sequence[Tuple[str, str, str]],
                 bound: Dict[str, List[Dict[str, Term]]]) -> Formula:
    """Conjunction over observation indices 0..k-1 of the body under the
    images of the bound trace variables."""
    if k > 0:
        for _, _, trace_var in slots:
            if trace_var not in bound:
                raise EncodingError(f"trace variable {trace_var!r} is not bound")
    return logic.conj(
        logic.substitute(body, {name: term for images in bound.values()
                                for name, term in images[i].items()})
        for i in range(k))


def _own(slots: Sequence[Tuple[str, str, str]], trace_var: str) -> List[Tuple[str, str]]:
    return [(name, var) for name, var, tv in slots if tv == trace_var]


def encode_invariant(body: Formula, k: int, binding: Dict[str, SymTrace]) -> Formula:
    """Conjunction over observation indices 0..k-1 of the instantiated body."""
    slots = _body_slots(body)
    return _instantiate(body, k, slots, {
        trace_var: _images(trace, trace_var, _own(slots, trace_var), k)
        for trace_var, trace in binding.items()})


def _apart(names: Sequence[str]) -> Tuple[Tuple[str, ...], Dict[str, Term]]:
    """An existential trace's fresh variables renamed apart (`v!N` becomes
    `ev!N`), and the renaming.

    When both quantifiers range over the same program, the search walks
    one tree for both sides, so a universal trace and an existential trace
    can carry the same fresh names. Renamed, an existential binder never
    captures a universal variable. The map is the same for every trace, so
    equal terms stay equal.
    """
    renamed = tuple("e" + name for name in names)
    return renamed, {name: logic.Var(new) for name, new in zip(names, renamed)}


def _domain_constraint(names: Sequence[str],
                       domain: Optional[Tuple[int, int]]) -> Formula:
    if domain is None:
        return logic.TRUE
    lo, hi = domain
    return logic.conj(
        [logic.conj([logic.cmp("<=", logic.IntLit(lo), logic.Var(v)),
                     logic.cmp("<=", logic.Var(v), logic.IntLit(hi))])
         for v in names])


@dataclass(frozen=True)
class QuantifiedTraces:
    kind: str  # "forall" | "exists"
    trace_var: str
    traces: Tuple[SymTrace, ...]


def encode(quantifiers: Sequence[QuantifiedTraces], body: Formula, k: int,
           domain: Optional[Tuple[int, int]] = None) -> Formula:
    """Closed encoding of the bound-k semantics over materialized trace sets.

    The optional domain interval constrains every fresh variable of every
    trace; it exists so desk-scale runs can be cross-checked against the
    finite-domain oracle, and is conjoined next to the path formulas, never
    inside them. Existential traces are renamed apart (see `_apart`), in
    their path and in the terms the body takes from them.
    """
    slots = _body_slots(body)

    def rec(i: int, bound: Dict[str, List[Dict[str, Term]]]) -> Formula:
        if i == len(quantifiers):
            return _instantiate(body, k, slots, bound)
        q = quantifiers[i]
        own = _own(slots, q.trace_var)
        parts = []
        for trace in q.traces:
            fv, path, rho = trace.free_vars(), trace.path, None
            if q.kind == "exists":
                fv, rho = _apart(fv)
                path = logic.substitute(path, rho)
            scope = logic.conj([path, _domain_constraint(fv, domain)])
            inner = rec(i + 1, {**bound, q.trace_var: _images(trace, q.trace_var, own, k, rho)})
            if q.kind == "forall":
                parts.append(logic.forall(fv, logic.implies(scope, inner)))
            else:
                parts.append(logic.exists(fv, logic.conj([scope, inner])))
        return logic.conj(parts) if q.kind == "forall" else logic.disj(parts)

    return rec(0, {})


@dataclass(frozen=True)
class EncodedQuery:
    formula: Formula
    free_vars: Tuple[str, ...]
    provenance: str
    explanation: Formula  # the "no matching trace" part


class ExistentialSide(NamedTuple):
    """The existential traces of one bound, prepared for every lazy query
    with the same body, bound k and domain.

    Per trace, `blocks` holds its fresh variables, its scope (path and
    domain constraint) and, per observation index i, the class of its
    memory there: `sigmas[i][c]` maps the body's existential variables to
    the terms that every trace of class c gives them at index i, and
    `members[i][c]` has bit t set for each trace t of that class. Names and
    terms are renamed apart (see `_apart`).
    """
    trace_var: str
    body: Formula
    k: int
    domain: Optional[Tuple[int, int]]
    blocks: Tuple[Tuple[Tuple[str, ...], Formula, Tuple[int, ...]], ...]
    sigmas: Tuple[Tuple[Dict[str, Term], ...], ...]
    members: Tuple[Tuple[int, ...], ...]


def prepare_existential(trace_var: str, traces: Sequence[SymTrace],
                        body: Formula, k: int,
                        domain: Optional[Tuple[int, int]] = None) -> ExistentialSide:
    """The part of every bound-k lazy query that depends on the existential
    traces alone: built once per bound from the complete trace list."""
    blocks = []
    classes: List[Dict[Tuple[Term, ...], int]] = [{} for _ in range(k)]
    sigmas: List[List[Dict[str, Term]]] = [[] for _ in range(k)]
    members: List[List[int]] = [[] for _ in range(k)]
    # With no trace there is no pair to encode and nothing to check.
    own = _own(_body_slots(body), trace_var) if traces else []
    # The renaming is one map for every trace, so classes are formed before
    # it, and each path conjunct, which a path shares with the paths of its
    # prefixes, is renamed once.
    renamed: Dict[int, Formula] = {}
    for t, trace in enumerate(traces):
        fv2, rho = _apart(trace.free_vars())
        trace_classes = []
        for i in range(k):
            images = tuple([_image(trace, trace_var, var, i) for _, var in own])
            c = classes[i].setdefault(images, len(sigmas[i]))
            if c == len(sigmas[i]):
                sigmas[i].append({name: logic.substitute(term, rho)
                                  for (name, _), term in zip(own, images)})
                members[i].append(0)
            members[i][c] |= 1 << t
            trace_classes.append(c)
        path = trace.path
        conjuncts = path.args if isinstance(path, logic.And) else (path,)
        for conjunct in conjuncts:
            if id(conjunct) not in renamed:
                renamed[id(conjunct)] = logic.substitute(conjunct, rho)
        scope = logic.conj([*(renamed[id(c)] for c in conjuncts),
                            _domain_constraint(fv2, domain)])
        blocks.append((fv2, scope, tuple(trace_classes)))
    return ExistentialSide(trace_var, body, k, domain, tuple(blocks),
                           tuple(map(tuple, sigmas)), tuple(map(tuple, members)))


def _no_match(universal: SymTrace, universal_var: str,
              side: ExistentialSide) -> Formula:
    """The part "no existential trace matches `universal`": one block per
    trace, forall fv2. not(scope and body_0 and ... and body_{k-1})."""
    if not side.blocks:  # no pair to encode, nothing to check
        return logic.TRUE
    own = []
    for name, var, trace_var in _body_slots(side.body):
        if trace_var == universal_var:
            own.append((name, var))
        elif trace_var != side.trace_var:
            raise EncodingError(f"trace variable {trace_var!r} is not bound")
    # instances[i][c]: the body at index i under the universal memory and
    # the existential memory of class c. Substituting the two sides one
    # after the other gives the simultaneous substitution's formula: their
    # images share no variable with the other side's names.
    instances = []
    folded = 0  # traces with a false part: their blocks fold to true
    for i in range(side.k):
        body_i = logic.substitute(
            side.body, {name: _image(universal, universal_var, var, i)
                        for name, var in own})
        instances.append([logic.substitute(body_i, sigma) for sigma in side.sigmas[i]])
        for c, instance in enumerate(instances[i]):
            if instance == logic.FALSE:
                folded |= side.members[i][c]
    # A true block drops out of the conjunction, so it is never built.
    return logic.conj(
        logic.forall(fv2, logic.negate(logic.conj(
            [scope, *map(list.__getitem__, instances, trace_classes)])))
        for t, (fv2, scope, trace_classes) in enumerate(side.blocks)
        if not folded >> t & 1)


def lazy_query(universal: SymTrace, universal_var: str,
               existential: Optional[ExistentialSide],
               body: Formula, k: int,
               domain: Optional[Tuple[int, int]] = None,
               provenance: str = "") -> EncodedQuery:
    """Refutation query for one universal trace.

    Satisfiable iff the universal trace has an instantiation that no
    existential trace can match; a model assigns the universal trace's
    fresh variables. `existential` is None for specifications with no
    existential quantifier, which use the plain negated invariant as the
    explanation part; otherwise it is prepared for the same body, bound
    and domain.
    """
    fv1 = universal.free_vars()
    c1 = logic.conj([universal.path, _domain_constraint(fv1, domain)])
    if existential is None:
        c2 = logic.negate(encode_invariant(body, k, {universal_var: universal}))
    else:
        if (existential.body, existential.k, existential.domain) != (body, k, domain):
            raise ValueError("existential side prepared for another body, bound or domain")
        c2 = _no_match(universal, universal_var, existential)
    return EncodedQuery(
        formula=logic.conj([c1, c2]),
        free_vars=fv1,
        provenance=provenance,
        explanation=c2,
    )
