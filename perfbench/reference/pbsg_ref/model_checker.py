"""Identity model checking by counterexample search.

Decides whether the inverse semigroup generated by a set of partial
bijections (inverses are appended when missing) models an identity with
optional idempotent premises.  The search enumerates boundary point tuples
for both words and then, independently per variable, looks for a generator
word that realizes every occurrence constraint at once; a boundary that every
variable can serve yields a counterexample assignment.

Points live in ``{0..n-1}`` plus an absorbing sink standing for "undefined"
(written ``_`` externally, carried internally as the integer ``n``, exactly
the embedding's extra point).  The first boundary point must be a real point;
every other position may be the sink, and a sink possibly differing from a
real endpoint is what lets the search see definedness-only disagreements.
A guess where a real point follows a sink on the same trace is rejected
outright: the sink is absorbing, so no run could realize it.

Per-variable runs are breadth-first over tuples of tracked slot values.  An
occurrence ``x -> y`` of ``x_i`` tracks a forward slot (start x, end y); an
occurrence of ``x_i^-1`` tracks the reverse edge forwards (start y, end x).
An inverse occurrence whose target is the sink requires its source to lie
outside the image of the realized element, which no single slot can attest;
those runs also track the image of the word's value as a bitmask component
(updated forwards: image(s·a) = (image(s) ∩ dom(a))·a).  Premise-constrained
variables track a second slot per occurrence pinning the behaviour of the
idempotent power instead, and need no mask because an idempotent's domain and
image coincide.  In the default (sink-extended) mode the accepted guesses
coincide exactly with the semantic counterexamples, so the verdict matches
the closure oracle; ``strict_points=True`` keeps every guessed point real,
which can miss definedness-only counterexamples and is allowed to disagree
with the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .closure import GeneratorSet, evaluate_word
from .identities import Identity, apply_assignment
from .pbij import PartialBijection

DEFAULT_BUDGET = 10_000_000


class ArityOverflow(RuntimeError):
    """The configuration or boundary space exceeds the search budget."""


@dataclass(frozen=True)
class BoundaryGuess:
    """Guessed trace points for both words; index 0 is the shared start.

    Values are 0-based points, with the degree itself standing for the sink.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]


@dataclass(frozen=True)
class VariableRun:
    ok: bool
    word: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class Counterexample:
    boundary: BoundaryGuess
    words: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ModelCheckResult:
    models: bool
    counterexample: Optional[Counterexample]
    #: the inverse-closed generator list that counterexample words index into
    generators: GeneratorSet


@dataclass(frozen=True)
class _Occ:
    side: int  # 0 = lhs, 1 = rhs
    pos: int
    exponent: int


@dataclass(frozen=True)
class _VarPlan:
    occs: tuple[_Occ, ...]
    constrained: bool
    mask_on: bool


def _occurrences(ident: Identity, var: int) -> tuple[_Occ, ...]:
    occs = []
    for side, word in ((0, ident.lhs), (1, ident.rhs)):
        for pos, lit in enumerate(word):
            if lit.var == var:
                occs.append(_Occ(side, pos, lit.exponent))
    return tuple(occs)


def _slot_plan(occs, constrained, p, q, bottom):
    """Slot starts/targets and image exclusions for one variable and boundary.

    Returns None when some occurrence is unsatisfiable for every element
    (a real point right after a sink on the same trace).
    """
    inits: list[int] = []
    finals: list[int] = []
    excludes: list[int] = []
    for occ in occs:
        arr = p if occ.side == 0 else q
        x, y = arr[occ.pos], arr[occ.pos + 1]
        if x == bottom:
            if y != bottom:
                return None
            continue
        if occ.exponent == 1:
            inits.append(x)
            finals.append(y)
            if constrained and y != bottom:
                inits.append(y)
                finals.append(y)
        elif y == bottom:
            if constrained:
                inits.append(x)
                finals.append(bottom)
            else:
                excludes.append(x)
        else:
            inits.append(y)
            finals.append(x)
            if constrained:
                inits.append(x)
                finals.append(x)
    return tuple(inits), tuple(finals), tuple(excludes)


def _mask_step(action, mask, n):
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        v = action[bit.bit_length() - 1]
        if v != n:
            out |= 1 << v
    return out


def _explore(actions, inits, mask_on, n):
    """First-arrival words for every slot configuration reachable in >= 1
    letters; breadth-first with letters in index order, so each recorded word
    is the shortest and lexicographically least."""
    if mask_on:
        start = inits + ((1 << n) - 1,)
    else:
        start = inits
    nslots = len(inits)
    arrived: dict = {}
    by_slots: dict = {} if mask_on else None
    queue = deque(((start, ()),))
    while queue:
        config, word = queue.popleft()
        slots = config[:nslots]
        mask = config[nslots] if mask_on else None
        for c, act in enumerate(actions):
            ns = tuple(act[v] for v in slots)
            nc = ns + (_mask_step(act, mask, n),) if mask_on else ns
            if nc in arrived:
                continue
            w = word + (c,)
            arrived[nc] = w
            if mask_on:
                by_slots.setdefault(nc[:nslots], []).append((nc[nslots], w))
            if nc != start:
                queue.append((nc, w))
    return arrived, by_slots


def _query(arrived, by_slots, finals, excludes, mask_on):
    if not mask_on:
        return arrived.get(finals)
    forbidden = 0
    for x in excludes:
        forbidden |= 1 << x
    for mask, word in by_slots.get(finals, ()):
        if not mask & forbidden:
            return word
    return None


def _plan_variable(ident, var, strict_points):
    occs = _occurrences(ident, var)
    constrained = var <= ident.num_premises
    mask_on = (
        not strict_points
        and not constrained
        and any(o.exponent == -1 for o in occs)
    )
    return _VarPlan(occs, constrained, mask_on)


def _state_space(plan: _VarPlan, n: int) -> int:
    slots = (2 if plan.constrained else 1) * len(plan.occs)
    return (n + 1) ** slots * ((1 << n) if plan.mask_on else 1)


def check_variable_run(
    gens: GeneratorSet,
    ident: Identity,
    var: int,
    boundary: BoundaryGuess,
    budget: int = DEFAULT_BUDGET,
    strict_points: bool = False,
) -> VariableRun:
    """Search one variable's run for one boundary guess.

    The returned word (shortest, then lexicographically least; always nonempty)
    indexes into ``gens.generators`` as given; callers working over an inverse
    semigroup pass the inverse-closed list.
    """
    n = gens.degree
    if not 1 <= var <= ident.num_vars:
        raise ValueError(f"variable x{var} out of range")
    if len(boundary.p) != len(ident.lhs) + 1 or len(boundary.q) != len(ident.rhs) + 1:
        raise ValueError("boundary lengths must match the identity's words")
    if boundary.p[0] != boundary.q[0] or boundary.p[0] >= n:
        raise ValueError("traces must share a real start point")
    plan = _plan_variable(ident, var, strict_points)
    if _state_space(plan, n) > budget:
        raise ArityOverflow(
            f"variable x{var} run needs {_state_space(plan, n)} states (budget {budget})"
        )
    run_spec = _slot_plan(plan.occs, plan.constrained, boundary.p, boundary.q, n)
    if run_spec is None:
        return VariableRun(False, None)
    inits, finals, excludes = run_spec
    actions = [g.embed().entries for g in gens.generators]
    arrived, by_slots = _explore(actions, inits, plan.mask_on, n)
    word = _query(arrived, by_slots, finals, excludes, plan.mask_on)
    return VariableRun(word is not None, word)


def models(
    gens: GeneratorSet,
    ident: Identity,
    budget: int = DEFAULT_BUDGET,
    strict_points: bool = False,
) -> ModelCheckResult:
    """Decide the identity; on failure ship the least counterexample.

    Boundaries are tried in lexicographic order (real points ascending, sink
    last), so the reported counterexample is the least one, with each
    variable's word minimal for it.
    """
    gens = gens.with_inverses()
    n = gens.degree
    bottom = n
    l, r = len(ident.lhs), len(ident.rhs)
    values = tuple(range(n)) if strict_points else tuple(range(n + 1))
    boundary_space = n * len(values) ** (l + r)
    if boundary_space > budget:
        raise ArityOverflow(
            f"{boundary_space} boundary guesses exceed the budget {budget}"
        )
    plans = [_plan_variable(ident, v, strict_points) for v in range(1, ident.num_vars + 1)]
    for var, plan in enumerate(plans, start=1):
        space = _state_space(plan, n)
        if space > budget:
            raise ArityOverflow(
                f"variable x{var} run needs {space} states (budget {budget})"
            )

    actions = [g.embed().entries for g in gens.generators]
    reach_cache: dict = {}
    query_cache: dict = {}
    miss = object()

    for p1 in range(n):
        for rest in product(values, repeat=l + r):
            p = (p1,) + rest[:l]
            q = (p1,) + rest[l:]
            if p[l] == q[r]:
                continue
            words = []
            for vi, plan in enumerate(plans):
                run_spec = _slot_plan(plan.occs, plan.constrained, p, q, bottom)
                if run_spec is None:
                    break
                inits, finals, excludes = run_spec
                qkey = (vi, inits, finals, excludes)
                word = query_cache.get(qkey, miss)
                if word is miss:
                    rkey = (vi, inits)
                    reach = reach_cache.get(rkey)
                    if reach is None:
                        reach = _explore(actions, inits, plan.mask_on, n)
                        reach_cache[rkey] = reach
                    word = _query(reach[0], reach[1], finals, excludes, plan.mask_on)
                    query_cache[qkey] = word
                if word is None:
                    break
                words.append(word)
            else:
                cex = Counterexample(BoundaryGuess(p, q), tuple(words))
                return ModelCheckResult(False, cex, gens)
    return ModelCheckResult(True, None, gens)


def realize_assignment(
    gens: GeneratorSet, ident: Identity, cex: Counterexample
) -> tuple[PartialBijection, ...]:
    """Elements a counterexample assigns to x1..xm; premise-constrained
    variables get the idempotent power of their realized word."""
    out = []
    for var, word in enumerate(cex.words, start=1):
        s = evaluate_word(gens, word)
        if var <= ident.num_premises:
            s = s.idempotent_power()
        out.append(s)
    return tuple(out)


def counterexample_values(gens, ident, cex):
    """(assignment, lhs value, rhs value) realized by a counterexample."""
    assignment = realize_assignment(gens, ident, cex)
    return assignment, apply_assignment(ident.lhs, assignment), apply_assignment(
        ident.rhs, assignment
    )


def render_point(value: int, degree: int) -> str:
    """1-based display form of a boundary point; the sink prints as ``_``."""
    return "_" if value == degree else str(value + 1)
