"""First-order queries of trace specifications over symbolic traces.

The bound-k semantics over the observed symbolic traces is a conjunction
over universal traces, each wrapped in a forall over its fresh variables,
of a disjunction over existential traces, each an exists block. The
invariant body is instantiated at every observation index by substituting
each trace-indexed variable `x@pi` with the bound trace's symbolic memory
term for `x`.

`lazy_query` builds the negation of that formula for one universal trace:
the universal path constraint conjoined with "no existential trace
matches". Its free variables are exactly the universal trace's fresh
variables, so a model concretizes directly into a counterexample trace.
The negation of the whole formula is the disjunction, over universal
traces u, of `exists fv_u. lazy_query(u)`: the naive search's query.

A search builds one `ExistentialSide`, which checks that the body binds
no other trace variable and compiles the body once. Everything in a query
that depends on one existential trace alone is prepared once per bound k
by `ExistentialSide.prepare`: the trace's fresh variables, its path
conjoined with the domain constraint, and the terms its memories give the
body's existential variables; the checks that the trace can be bound in
the body run there too. A trace shares its states, conjuncts and names
with its ancestor at the bound before, and the side keeps what it read
and renamed of them for the whole search, so each is read and renamed
once per search. Per observation index, existential traces whose memories
give those variables equal terms share one instantiation of the body. A
query then substitutes the universal trace's memory into the body once
per index and the existential memories once per such class, not once per
(trace, index) pair. A trace with an instantiation that folds to false
has a block that folds to true, so the query never builds it. A
specification with no existential quantifier gets one block that binds
nothing, so "no match" is the negated invariant. A block is built by
`logic.forall`, which applies the one-point rule: an existential variable
that a conjunct of the block equates with a term free of the block's
variables (on refinement specifications, every existential input equals a
universal one) is replaced by that term, so a block may lose some or all
of its binders, and a block whose body then folds to true is false.

The instances at index i depend on the universal trace only through the
terms its memory gives the body's universal variables there, so the side
memoizes them per (index, those terms), with the bitmasks of the traces
whose instance folded to true and to false. Universal traces with equal
images share one instantiation. The same memo answers
`ExistentialSide.witness`: a trace t whose instances all fold to true makes
its block `forall fv2. not scope`, which is false as soon as the scope is
satisfiable, and then the whole query is unsat. A witness must be *proved*
satisfiable, never merely admitted: its path is proved by symbolic
execution (`SymTrace.proved`: true, or answered sat, never unknown), and
with a domain, `path and domain` is checked once per trace, and only when
the trace is the candidate. The side without an existential quantifier has
scope true, so it is proved. The lazy search sends no query for a trace
that has a witness; every query it sends is the one `lazy_query` builds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import logic, smt
from .logic import Formula, FrozenRecord, Term
from .symexec import Feasibility, SymTrace


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
    memory = trace.observed[i].memory
    if var not in memory:
        raise EncodingError(
            f"program bound to {trace_var!r} has no variable {var!r}")
    return memory[var]


def _own(slots: Sequence[Tuple[str, str, str]], trace_var: str) -> List[Tuple[str, str]]:
    return [(name, var) for name, var, tv in slots if tv == trace_var]


def _apart(names: Sequence[str], rho: Dict[str, Term]) -> Tuple[str, ...]:
    """An existential trace's fresh variables renamed apart (`v!N` becomes
    `ev!N`), the renaming added to `rho`.

    When both quantifiers range over the same program, the search walks
    one tree for both sides, so a universal trace and an existential trace
    can carry the same fresh names. Renamed, an existential binder never
    captures a universal variable. The map is the same for every trace, so
    equal terms stay equal.
    """
    for name in names:
        if name not in rho:
            rho[name] = logic.Var("e" + name)
    return tuple([rho[name].name for name in names])


def _domain_constraint(names: Sequence[str],
                       domain: Optional[Tuple[int, int]]) -> Formula:
    if domain is None:
        return logic.TRUE
    lo, hi = domain
    return logic.conj(
        [logic.conj([logic.cmp("<=", logic.IntLit(lo), logic.Var(v)),
                     logic.cmp("<=", logic.Var(v), logic.IntLit(hi))])
         for v in names])


class EncodedQuery(FrozenRecord):
    # explanation: the "no matching trace" part of the formula
    __slots__ = ("formula", "free_vars", "explanation")


class ExistentialSide:
    """The existential side of one search; its lazy queries read the body,
    the bound k and the domain from it. `trace_var` is None when the
    specification has no existential quantifier.

    `prepare` fills the side for bound k from the complete trace list. Per
    trace, `blocks` holds its fresh variables, its scope (path and domain
    constraint) and, per observation index i, the class of its memory
    there: `sigmas[i][c]` maps the body's existential variables to the
    terms that every trace of class c gives them at index i, and
    `members[i][c]` has bit t set for each trace t of that class. Names
    and terms are renamed apart (see `_apart`). Bit t of `proved` is set
    when trace t's path is proved satisfiable (see `symexec`).

    Per bound, the side memoizes the body's instances per index i and
    universal images at i (`instances`), so universal traces whose
    memories give the body equal terms share them, and a query and a
    witness read the same ones.
    """

    __slots__ = ("universal_var", "trace_var", "domain", "k", "blocks",
                 "sigmas", "members", "proved", "_universal", "_existential",
                 "_instance", "_memo", "_in_domain", "_state_images",
                 "_renamed_sigmas", "_renamed", "_rho")

    def __init__(self, universal_var: str, trace_var: Optional[str], body: Formula,
                 domain: Optional[Tuple[int, int]] = None):
        slots = _body_slots(body)
        for _, _, trace in slots:
            if trace not in (universal_var, trace_var):
                raise EncodingError(f"trace variable {trace!r} is not bound")
        self.universal_var = universal_var
        self.trace_var = trace_var
        self.domain = domain
        # (full name, program variable) of each side's slots
        self._universal = _own(slots, universal_var)
        self._existential = _own(slots, trace_var)
        self._instance = logic.substituter(body)
        # index i and universal images at i -> (instances, true, false)
        self._memo: Dict[tuple, Tuple[List[Formula], int, int]] = {}
        # trace -> whether its scope (path and domain) answered sat
        self._in_domain: Dict[int, bool] = {}
        # Kept for the whole search: id of a state -> (the state, its
        # images), images -> renamed sigma, id of a conjunct -> (the
        # conjunct, renamed), and the renaming. An entry keeps its key's
        # object alive, so that the id stays unique.
        self._state_images, self._renamed_sigmas, self._renamed, self._rho = {}, {}, {}, {}

    def prepare(self, k: int, traces: Sequence[SymTrace]) -> None:
        """The part of every bound-k lazy query that depends on the
        existential traces alone, from the bound's complete trace list."""
        self.k = k
        self._memo.clear()
        self._in_domain.clear()
        if self.trace_var is None:
            # One block with no variables, scope true (so proved) and no
            # existential term: "no match" is the negated invariant.
            self.blocks = (((), logic.TRUE, (0,) * k),)
            self.sigmas, self.members, self.proved = (({},),) * k, ((1,),) * k, 1
            return
        state_images, renamed_sigmas = self._state_images, self._renamed_sigmas
        renamed, rho, own = self._renamed, self._rho, self._existential
        blocks = []
        classes: List[Dict[Tuple[Term, ...], int]] = [{} for _ in range(k)]
        sigmas: List[List[Dict[str, Term]]] = [[] for _ in range(k)]
        members: List[List[int]] = [[] for _ in range(k)]
        proved = 0
        # The renaming is one map for every trace, so classes are formed
        # before it, and each path conjunct, which a path shares with the
        # paths of its prefixes, is renamed once.
        for t, trace in enumerate(traces):
            fv2 = _apart(trace.free_vars(), rho)
            trace_classes = []
            for i in range(k):
                # `_image` raises on a trace without observation i, unless
                # the body takes no term from it: then every entry, None's
                # too, is ().
                state = trace.observed[i] if i < len(trace.observed) else None
                entry = state_images.get(id(state))
                if entry is None:
                    entry = state_images[id(state)] = (
                        state,
                        tuple([_image(trace, self.trace_var, var, i) for _, var in own]))
                images = entry[1]
                c = classes[i].setdefault(images, len(sigmas[i]))
                if c == len(sigmas[i]):
                    sigma = renamed_sigmas.get(images)
                    if sigma is None:
                        sigma = renamed_sigmas[images] = {
                            name: logic.substitute(term, rho)
                            for (name, _), term in zip(own, images)}
                    sigmas[i].append(sigma)
                    members[i].append(0)
                members[i][c] |= 1 << t
                trace_classes.append(c)
            path = trace.path
            conjuncts = path.args if isinstance(path, logic.And) else (path,)
            for conjunct in conjuncts:
                if id(conjunct) not in renamed:
                    renamed[id(conjunct)] = (conjunct, logic.substitute(conjunct, rho))
            scope = logic.conj([*(renamed[id(c)][1] for c in conjuncts),
                                _domain_constraint(fv2, self.domain)])
            blocks.append((fv2, scope, tuple(trace_classes)))
            if trace.proved:
                proved |= 1 << t
        self.blocks = tuple(blocks)
        self.sigmas = tuple(map(tuple, sigmas))
        self.members = tuple(map(tuple, members))
        self.proved = proved

    def instances(self, universal: SymTrace, i: int) -> Tuple[List[Formula], int, int]:
        """The body at index i under the universal memory and the
        existential memory of each class, with the traces (bitmasks) whose
        instance folded to true and to false."""
        own = self._universal
        images = tuple([_image(universal, self.universal_var, var, i) for _, var in own])
        key = (i, images)
        entry = self._memo.get(key)
        if entry is None:
            # One simultaneous substitution of both sides per class.
            instance = self._instance
            universal_sigma = {name: term for (name, _), term in zip(own, images)}
            found = [instance({**sigma, **universal_sigma}) for sigma in self.sigmas[i]]
            true = false = 0
            for c, instance in enumerate(found):
                if isinstance(instance, logic.BoolLit):
                    if instance.value:
                        true |= self.members[i][c]
                    else:
                        false |= self.members[i][c]
            entry = self._memo[key] = (found, true, false)
        return entry

    def witness(self, universal: SymTrace, feasibility: Feasibility) -> Optional[int]:
        """The lowest existential trace that matches `universal` on every
        input, or None.

        A witness is a proved trace whose body instances all fold to true
        under the universal memory: its block is then `forall fv2. not
        scope`, false since the scope is satisfiable, so the query is
        unsat. With a domain, the scope is `path and domain`, which must be
        proved too: it is checked through `feasibility` once per trace, and
        only for a trace that is the candidate.
        """
        candidates = self.proved
        for i in range(self.k):
            if not candidates:
                return None
            candidates &= self.instances(universal, i)[1]
        while candidates:
            t = (candidates & -candidates).bit_length() - 1
            if self._scope_proved(t, feasibility):
                return t
            candidates &= candidates - 1
        return None

    def _scope_proved(self, t: int, feasibility: Feasibility) -> bool:
        if self.domain is None:
            return True
        if t not in self._in_domain:
            self._in_domain[t] = isinstance(feasibility.check(self.blocks[t][1]), smt.Sat)
        return self._in_domain[t]


def _no_match(universal: SymTrace, side: ExistentialSide) -> Formula:
    """The part "no existential trace matches `universal`": one block per
    trace, forall fv2. not(scope and body_0 and ... and body_{k-1})."""
    if not side.blocks:  # no pair to encode, nothing to check
        return logic.TRUE
    # instances[i][c]: the body at index i under the universal memory and
    # the existential memory of class c.
    instances = []
    folded = 0  # traces with a false part: their blocks fold to true
    for i in range(side.k):
        found, _, false = side.instances(universal, i)
        instances.append(found)
        folded |= false
    # A true block drops out of the conjunction, so it is never built.
    return logic.conj(
        logic.forall(fv2, logic.negate(logic.conj(
            [scope, *map(list.__getitem__, instances, trace_classes)])))
        for t, (fv2, scope, trace_classes) in enumerate(side.blocks)
        if not folded >> t & 1)


def lazy_query(universal: SymTrace, existential: ExistentialSide) -> EncodedQuery:
    """Refutation query for one universal trace.

    Satisfiable iff the universal trace has an instantiation that no
    existential trace can match; a model assigns the universal trace's
    fresh variables. The body, bound and domain are the existential
    side's.
    """
    fv1 = universal.free_vars()
    c1 = logic.conj([universal.path, _domain_constraint(fv1, existential.domain)])
    c2 = _no_match(universal, existential)
    return EncodedQuery(
        formula=logic.conj([c1, c2]),
        free_vars=fv1,
        explanation=c2,
    )
