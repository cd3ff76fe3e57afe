"""Identity model checking by counterexample search.

Decides whether the inverse semigroup generated by a set of partial
bijections (inverses are appended when missing) models an identity with
optional idempotent premises.  The search guesses boundary point tuples for
both words and, independently per variable, looks for a generator word that
realizes every occurrence constraint at once; a boundary that every variable
can serve yields a counterexample assignment.

Laws are decided first, from the identity alone.  If the two words are equal
in the free inverse semigroup on the variables, the identity holds in every
inverse semigroup whatever the generators, so ``models`` answers that it
holds without a walk and charges nothing; of the generators it reads only
the degree cap.  Munn's solution of the word problem decides the equality
in linear time: two words are equal there iff they have the same Munn
tree, the set of free-group-reduced prefixes, and the same reduced value.
A premise variable ``x_i = x_i^2`` is read as ``y_i y_i^-1`` whatever its
exponent: in an inverse semigroup every idempotent e equals e·e⁻¹ and its
own inverse, so under an assignment that meets the premises each word
takes the value of its substituted form with ``y_i`` set to the value of
``x_i``, and a law of the substituted words holds there.

Identities of the generators' class come next, read the same way.  If the
inverse hull of the generators lies in a class of inverse semigroups where
the two words are equal, the identity holds in the semigroup they generate,
again without a walk and without charge.  Each class is tested on the
hull's keys, and its word problem is the standard one for its free object:
a group (every key undefined at the same points) needs the same reduced
value; an abelian group (a group whose keys commute) the same exponent sum
per non-premise variable; a commutative inverse semigroup (the keys
commute) the same content, the set of variables read, and the same sums; a
Clifford semigroup (dom(ab) = dom(ba) for all keys, which on an
inverse-closed set means dom(ab) = dom a ∩ dom b) the same content and
reduced value.  A semilattice is commutative and Clifford, so it has no
test of its own.  A class is tested only when its word test passed.  Both
tests only ever answer "holds"; any other identity falls through to the
walk, whose verdicts, least counterexamples and charges they leave as they
were.

Points live in ``{0..n-1}`` plus an absorbing sink standing for "undefined"
(written ``_`` externally, carried internally as the integer ``n``, the sink
byte of the closure's keys, so the degree is capped at ``MAX_DEGREE``).  The
first boundary point must be a real point; every other position may be the
sink, and a sink possibly differing from a real endpoint is what lets the
search see definedness-only disagreements.  With the sink among the guessed
points, the accepted guesses coincide exactly with the semantic
counterexamples, so the verdict matches the closure oracle.

Boundary positions are fixed depth first in lexicographic order (``p``, then
``q``; real points ascending, sink last).  Each position past the start ends
exactly one occurrence, which ``_Occurrences.bind`` adds to the run spec its
variable's previous occurrence left; ``_offer`` names the position's choices,
and ``_walk`` says which of them it queries.  A word realizing a variable's
full spec realizes every part of it, so a variable that no word can serve
even in part prunes every boundary that extends the prefix.  Every rejection
rule only grows with the bound occurrences, so no pruned prefix has an
accepted completion and the first complete boundary found is the least
counterexample.  Its words are spelled then, each the least word for its
variable's spec (``_run_word``); a variable that occurs in neither word,
which only a premise can leave, has the empty spec, and the first letter is
its word.

Each expanded position adds its number of choices to one work count, and
each breadth-first search (``_explore``, ``_masked_word``) the states it
reaches; ``LimitExceeded`` is raised once the count passes ``budget``.
Positions below a rejected point are never expanded, so they are never
charged.  A masked search for an exclusion that no word meets walks every
image the words reach, up to 2^n of them, so there the budget bounds the
work, not the time.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

# DEFAULT_BUDGET lives in ``closure`` so that the CLI can name it without
# loading this module; it is re-exported from here.
from .closure import (DEFAULT_BUDGET, GeneratorSet, LimitExceeded, _inverse_key, _keys, _tables,
                      _tail, evaluate_word)
from .identities import Identity, apply_assignment
from .pbij import PartialBijection, ValueType

class _Work:
    """What is left of one call's budget of boundary choices and reach states."""

    __slots__ = ("budget", "left")

    def __init__(self, budget: int):
        self.budget = self.left = budget

    def charge(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise LimitExceeded(self.budget, self.budget - self.left,
                                f"model checking work exceeds the budget {self.budget}")


class BoundaryGuess(ValueType):
    """Guessed trace points for both words; index 0 is the shared start.

    Values are 0-based points, with the degree itself standing for the sink.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: tuple[int, ...], q: tuple[int, ...]):
        self.p = p
        self.q = q


class Counterexample(ValueType):
    __slots__ = ("boundary", "words")

    def __init__(self, boundary: BoundaryGuess, words: tuple[tuple[int, ...], ...]):
        self.boundary = boundary
        self.words = words


class ModelCheckResult(ValueType):
    """The least counterexample, None when the identity holds, and the
    inverse-closed generator list that counterexample words index into."""

    __slots__ = ("counterexample", "generators")

    def __init__(self, counterexample: Optional[Counterexample], generators: GeneratorSet):
        self.counterexample = counterexample
        self.generators = generators

    @property
    def models(self) -> bool:
        return self.counterexample is None


#: the spec of a variable with no occurrence bound: any letter realizes it
_EMPTY = ({}, {}, frozenset())


class _Occurrences:
    """One variable's occurrence edges, and the rule binding them into its run
    spec.

    ``edges`` holds one (from, to, exponent) per occurrence, in position
    order, where from/to index the flat boundary ``p[0..l] + q[1..r]`` and
    from < to: literal t of ``lhs + rhs`` runs from position t to t + 1,
    except the first literal of ``rhs`` (t = l), which starts at the shared
    start 0.  A premise variable's exponents are all 1, as its value is an
    idempotent and so its own inverse, so only a plain variable has inverse
    edges.  ``depth`` is the last flat position the variable reads, the
    last edge's end (0 when it occurs nowhere).  A spec is the tuple
    ``(ends, real, forbidden)``: start point -> required end point, real end
    point -> its start point, and the frozenset of points the image must
    exclude.  Specs are values: ``bind`` builds a new one and never changes
    the one it is given.
    """

    __slots__ = ("edges", "constrained", "depth", "sink")

    def __init__(self, ident, var, sink):
        l = len(ident.lhs)
        constrained = self.constrained = var <= ident.num_premises
        # a literal of this variable is ``var`` or ``-var``: exponent ``lit // var``
        self.edges = edges = tuple((t if t != l else 0, t + 1, 1 if constrained else lit // var)
                                   for t, lit in enumerate(ident.lhs + ident.rhs)
                                   if lit == var or lit == -var)
        self.depth = edges[-1][1] if edges else 0
        self.sink = sink

    def bind(self, spec, x, y, exponent):
        """``spec`` with the occurrence ``x -> y`` added; the same object when
        the edge adds nothing, and None when no word can realize the spec any
        more: a real point right after a sink on the same trace, one start
        point sent to two end points (a word acts as a function), two start
        points sent to one real point (it is injective away from the sink), a
        real end point that the image must exclude, or, for a premise
        variable, a real end point that is not fixed (its value is
        idempotent).  An inverse edge (``exponent`` -1) to a real point binds
        the forward edge ``y -> x``, and one to the sink excludes x from the
        image.  Each rule only looks at the edges bound so far, so a spec
        rejected here stays rejected whatever is bound later.
        """
        sink = self.sink
        if x == sink:
            return spec if y == sink else None
        ends, real, forbidden = spec
        if exponent == -1:
            if y == sink:
                if x in forbidden:
                    return spec
                return None if x in real else (ends, real, forbidden | {x})
            x, y = y, x
        end = ends.get(x)
        if end is not None:
            return spec if end == y else None
        if y != sink:
            if y in real or y in forbidden or self.constrained and y != x:
                return None
            real = {**real, y: x}
        return {**ends, x: y}, real, forbidden


def _explore(letters, points, work):
    """First-arrival words for every slot tuple reachable in >= 1 letters;
    breadth-first with letters in index order, so each recorded word is the
    shortest and lexicographically least.  ``points`` holds one byte per
    slot.  Arrivals are charged to ``work``, which stops the search at most
    one expansion after they pass it.
    """
    arrived: dict = {}
    queue = [(points, ())]
    while queue and len(arrived) <= work.left:
        # one level at a time, so that the queue holds at most two
        level, queue = queue, []
        for slots, word in level:
            if len(arrived) > work.left:
                break
            for c, table in enumerate(letters):
                ns = slots.translate(table)
                if ns in arrived:
                    continue
                w = word + (c,)
                arrived[ns] = w
                if ns != points:
                    queue.append((ns, w))
    work.charge(len(arrived))
    return arrived


def _masked_word(letters, points, targets, forbidden, n, work):
    """The least word sending the slots ``points`` to ``targets`` whose
    value's image misses every point of ``forbidden``, or None.

    Breadth-first over the slots followed by the image indicator (n bytes of
    0/1, starting full), letters in index order, stopping at the first
    arrival that satisfies the spec: arrivals come in shortlex order of
    their first words, so that word is the least.  The states reached are
    charged to ``work`` however the search ends, and stop it at most one
    expansion after they pass it.  Each call builds its own preimage of
    every letter: byte w is the point the letter sends to w, or the sink,
    so one ``translate`` of it through the indicator steps the image:
    image(s·a) = (image(s) ∩ dom(a))·a.
    """
    pairs = [(table, _inverse_key(table[:n])) for table in letters]
    full = b"\x01" * n
    pad = bytes(256 - n)  # the sink is in no image
    start = points + full
    arrived: set = set()
    queue = [(points, full, ())]
    try:
        while queue and len(arrived) <= work.left:
            # one level at a time, as in ``_explore``
            level, queue = queue, []
            for slots, img, word in level:
                if len(arrived) > work.left:
                    break
                img += pad
                for c, (table, pre) in enumerate(pairs):
                    ns = slots.translate(table)
                    ni = pre.translate(img)
                    nc = ns + ni
                    if nc in arrived:
                        continue
                    arrived.add(nc)
                    w = word + (c,)
                    if ns == targets and not any(ni[x] for x in forbidden):
                        return w
                    if nc != start:
                        queue.append((ns, ni, w))
        return None
    finally:
        work.charge(len(arrived))


def _reach(letters, points, reach_cache, work):
    """The plain reach over the start points ``points``, explored on first use."""
    reach = reach_cache.get(points)
    if reach is None:
        reach = reach_cache[points] = _explore(letters, points, work)
    return reach


def _offer(letters, occ, spec, x, exponent, reach_cache, index_cache, work):
    """The end points offered to a position ending the edge from x, in walk
    order (ascending, the sink last): among them is every point that binds
    into ``spec`` and whose relaxed query answers.

    A point the spec forces is offered alone: a sink stays the sink, a bound
    start point keeps its end, an inverse edge from a real end point goes
    back to that end's start (the sink would exclude x from the image, and
    any other point would be a second start sent to x), and one from a point
    the image excludes goes to the sink.  Any other edge is offered a
    projection at x's slot of one plain reach, indexed by the rest of its
    tuples once per slot, in ``index_cache``:

    - a forward edge, the end points y such that some word sends x to y and
      every bound start point to its end: the reach over those start points
      and x, which answers the relaxed query.  A premise variable keeps only
      x and the sink among them, as its real ends are fixed;
    - an inverse edge, the real points y such that some word sends x to y
      and every real end point back to its start, then the sink: the reach
      over the real end points and x.  The letters are inverse-closed, so
      the inverse of a word is a word, and it sends y to x and each bound
      start point to its real end.  So when every bound end is real the
      projection answers the relaxed query, and otherwise it holds every
      point that answers it.  The sink only excludes x from the image, which
      the relaxed query leaves out, so it answers as the spec did.
    """
    n = occ.sink
    if x == n:
        return (n,)
    ends, real, forbidden = spec
    bound = ends if exponent == 1 else real
    end = bound.get(x)
    if end is not None:
        return (end,)
    if exponent == -1 and x in forbidden:
        return (n,)
    points = bytes(sorted([*bound, x]))
    slot = points.index(x)
    index = index_cache.get((points, slot))
    if index is None:
        index = index_cache[points, slot] = {}
        # tuples that agree off the slot sort by their point at the slot
        for t in sorted(_reach(letters, points, reach_cache, work)):
            index.setdefault(t[:slot] + t[slot + 1:], []).append(t[slot])
    choices = index.get(bytes([bound[p] for p in points if p != x]), ())
    if exponent == -1:
        return choices if choices and choices[-1] == n else [*choices, n]
    if occ.constrained:
        return [y for y in choices if y == x or y == n]
    return choices


def _run_word(letters, spec, n, reach_cache, work, full=True):
    """The least word realizing ``spec``, or None.

    With ``full`` false the image exclusions are dropped and only the start
    to end map is asked for.  Without exclusions the answer is read from the
    plain reach over the sorted start points, explored on first use; with
    them it comes from a search of its own that tracks the image and stops
    at the answer, run and charged on every such query.  Slot order is
    immaterial to the breadth-first search, so variables whose start points
    agree share a reach whatever order they bound them in, and the words
    are the same as for the variable's own slot order.
    """
    ends, _, forbidden = spec
    points = bytes(sorted(ends))
    targets = bytes([ends[x] for x in points])
    if not (full and forbidden):
        return _reach(letters, points, reach_cache, work).get(targets)
    return _masked_word(letters, points, targets, forbidden, n, work)


def check_variable_run(
    gens: GeneratorSet,
    ident: Identity,
    var: int,
    boundary: BoundaryGuess,
    budget: int = DEFAULT_BUDGET,
) -> Optional[tuple[int, ...]]:
    """Search one variable's run for one boundary guess.

    The variable's occurrences are bound in position order, as ``models``
    binds them, and the spec is then queried.  Returns the word (shortest,
    then lexicographically least; always nonempty), or None when no word
    realizes the run.  The word indexes into ``gens.generators`` as given;
    callers working over an inverse semigroup pass the inverse-closed list.
    Raises ``LimitExceeded`` when the run's search reaches more than
    ``budget`` states, and ``ValueError`` past ``closure.MAX_DEGREE``.
    """
    n = gens.degree
    letters = _tables(_keys(gens))
    if not 1 <= var <= ident.num_vars:
        raise ValueError(f"variable x{var} out of range")
    if len(boundary.p) != len(ident.lhs) + 1 or len(boundary.q) != len(ident.rhs) + 1:
        raise ValueError("boundary lengths must match the identity's words")
    if boundary.p[0] != boundary.q[0] or boundary.p[0] >= n:
        raise ValueError("traces must share a real start point")
    pts = tuple(boundary.p) + tuple(boundary.q[1:])
    if any(not 0 <= x <= n for x in pts):
        raise ValueError(f"boundary points must lie in 0..{n}, the degree being the sink")
    occ = _Occurrences(ident, var, n)
    spec = _EMPTY
    for i, j, exponent in occ.edges:
        spec = occ.bind(spec, pts[i], pts[j], exponent)
        if spec is None:
            return None
    return _run_word(letters, spec, n, {}, _Work(budget))


def _reduce(ident: Identity):
    """Each word's free-group-reduced value and Munn tree, with each premise
    variable read as ``y_i y_i^-1``: a pair ``(value, tree)`` per word.

    Both words walk one shared trie of free-group-reduced words, whose
    vertices are integer ids (0 the empty word), so equal reduced words get
    one id: a value is the vertex a word ends at, a tree the set of vertices
    it visits.  A letter is a literal, so ``-b`` is the inverse of ``b``,
    and a premise variable ``v`` is the two letters ``v, -v``.  A letter
    that cancels the last letter of the current vertex steps back to its
    parent, which is already in the tree; any other steps to (and adds) the
    child.  O(|u| + |v|).
    """
    e = ident.num_premises
    child: dict = {}
    parent = [0]
    via = [0]
    trees = []
    for word in (ident.lhs, ident.rhs):
        node = 0
        tree = {0}
        for lit in word:
            v = abs(lit)
            for b in ((v, -v) if v <= e else (lit,)):
                if via[node] == -b:
                    node = parent[node]
                    continue
                step = child.get((node, b))
                if step is None:
                    step = child[node, b] = len(parent)
                    parent.append(node)
                    via.append(b)
                node = step
                tree.add(node)
        trees.append((node, tree))
    return trees


def _in_class(keys, letters, ident, same_value):
    """Whether the inverse hull keyed ``keys`` (``letters`` their
    ``closure._tables``) lies in a class of inverse semigroups where the two
    words, read as ``_reduce`` reads them, are equal; ``same_value`` says
    whether their reduced values are.

    Each class's free object has a standard word problem (Petrich, *Inverse
    Semigroups*, 1984; Howie, *Fundamentals of Semigroup Theory*, 1995).  It
    is decided by the words' content (the set of variables they read),
    their exponent sum per non-premise variable (a premise variable's is
    0), and their reduced value:

    - group, every key undefined at the same points (so, the hull being
      inverse-closed, each permutes one domain): the same reduced value;
    - abelian group, a group whose keys commute: the same exponent sums;
    - commutative inverse, the keys commute: the same content and sums;
    - Clifford, dom(ab) = dom(ba) for all keys a, b: the same content and
      reduced value.  With b = a⁻¹ this makes dom a = im a, and then
      dom(ab) = a⁻¹(X) and dom(ba) = b⁻¹(X) for X = dom a ∩ dom b, so both
      are X.  Each key thus permutes its domain and keeps every other
      key's, and every element lies in a subgroup.

    A class is tested only when its word test passed, the cheaper ones
    first.  The same reduced value implies the same exponent sums, and the
    Clifford class contains the commutative one, so with the same reduced
    value the commutative class is not tested.  A semilattice is
    commutative and Clifford, so it needs no test of its own.
    """
    same_content = set(map(abs, ident.lhs)) == set(map(abs, ident.rhs))
    if not same_value:
        sums = [0] * (ident.num_vars + 1)
        for lit in ident.lhs:
            sums[abs(lit)] += 1 if lit > 0 else -1
        for lit in ident.rhs:
            sums[abs(lit)] -= 1 if lit > 0 else -1
        if any(sums[ident.num_premises + 1:]):
            return False
    n = len(keys[0])
    undefined = bytes(n) + b"\x01" * (256 - n)  # a point reads 0, the sink 1

    def group():
        return len({k.translate(undefined) for k in keys}) == 1

    pairs = combinations(zip(keys, letters), 2)
    if not same_value:
        # the same exponent sums: an abelian group, or commutative inverse
        return (same_content or group()) and all(
            a.translate(tb) == b.translate(ta) for (a, ta), (b, tb) in pairs)
    # the same reduced value: a group, or Clifford
    return group() or same_content and all(
        a.translate(tb).translate(undefined) == b.translate(ta).translate(undefined)
        for (a, ta), (b, tb) in pairs)


def models(
    gens: GeneratorSet,
    ident: Identity,
    budget: int = DEFAULT_BUDGET,
) -> ModelCheckResult:
    """Decide the identity; on failure ship the least counterexample.

    A law of every inverse semigroup (the two words, with each premise
    variable ``x_i`` read as ``y_i y_i^-1``, are equal in the free inverse
    semigroup: ``_reduce`` gives them the same Munn tree and value) holds
    whatever the generators, so it is answered first: it reads nothing of
    the generators but the degree cap, builds no key or table, charges
    nothing and never raises ``LimitExceeded``.  The substitution is sound
    because every idempotent e of an inverse semigroup equals e·e⁻¹.  So is
    an identity whose words, read the same way, are equal in a class the
    inverse hull lies in (``_in_class``: groups, abelian groups, commutative
    inverse and Clifford semigroups).  Any other identity is decided by the
    boundary walk (``_walk``), with the same verdict, least counterexample
    and charges as without the tests.

    Boundaries are tried in lexicographic order of ``p[0..l]`` then
    ``q[1..r]`` (real points ascending, sink last), so the reported
    counterexample is the least one, with each variable's word minimal for
    it.  Raises ``ValueError`` past ``closure.MAX_DEGREE``, laws included,
    and for an identity that reaches the walk ``LimitExceeded`` once the
    work passes ``budget``.
    """
    gens = gens.with_inverses()
    lhs, rhs = _reduce(ident)
    if lhs == rhs:
        _tail(gens.degree)  # a law is refused past the cap too
        return ModelCheckResult(None, gens)
    keys = _keys(gens)
    letters = _tables(keys)
    if _in_class(keys, letters, ident, lhs[0] == rhs[0]):
        return ModelCheckResult(None, gens)
    return _walk(gens, letters, ident, budget)


def _walk(gens, letters, ident, budget):
    """The boundary walk behind ``models``, over the inverse-closed ``gens``
    and their translate tables (``closure._tables``).

    The positions are fixed depth first.  Each position ends one
    occurrence and is offered the points that ``_offer`` names.  A point
    binds that occurrence into the spec its variable's previous occurrence
    left, and a conflict rejects it at once.  The point is queried only
    where the answer can still be no: when the query is the full one, at the
    last position the variable reads, and the spec excludes image points; or
    when the edge is an inverse one from a spec with a sink end, whose offer
    is not exact, and the bind grew its start to end map, in which case the
    query before that last position is relaxed, without the image
    exclusions.  Any word for the full spec serves the relaxed one, so a
    variable with no word for either prunes every boundary below that
    prefix.  The word a position's query finds is kept with its spec, and
    once a counterexample is found it is reused as its variable's word; the
    other words are spelled then.
    """
    n = gens.degree
    l, r = len(ident.lhs), len(ident.rhs)
    occs = [_Occurrences(ident, v, n) for v in range(1, ident.num_vars + 1)]
    reach_cache: dict = {}
    index_cache: dict = {}
    last = l + r
    work = _Work(budget)
    # each position past the start ends exactly one occurrence, which extends
    # the spec left at its variable's previous one (at position 0, the empty
    # spec)
    ending: list = [None] * (last + 1)
    for occ in occs:
        prev = 0
        for i, j, exponent in occ.edges:
            ending[j] = (occ, i, exponent, j == occ.depth, prev)
            prev = j
    pts = [0] * (last + 1)
    # The positions are walked with an explicit stack, not by recursion, so
    # an identity's length is not bounded by the interpreter's recursion
    # limit.  ``pending[d]`` iterates the choices left at position d and
    # ``specs[d]`` is the spec its current point left; specs are values, so
    # backtracking undoes nothing.  ``found[d]`` is the word its query found,
    # or None when it asked none.
    pending: list = [None] * (last + 1)
    specs: list = [_EMPTY] * (last + 1)
    found: list = [None] * (last + 1)
    pending[0] = iter(range(n))
    d = 0
    while d >= 0:
        if d:
            occ, i, exponent, full, prev = ending[d]
            bind, start, base = occ.bind, pts[i], specs[prev]
            ends = base[0]
            # an inverse edge's offer is exact when every bound end is real
            inexact = exponent == -1 and len(ends) != len(base[1])
        for v in pending[d]:
            if d == last and pts[l] == v:
                continue
            pts[d] = v
            if d:
                spec = bind(base, start, v, exponent)
                if spec is None:
                    continue
                # every other spec passed the offer or an earlier query
                word = None
                if full and spec[2] or inexact and spec[0] is not ends:
                    word = _run_word(letters, spec, n, reach_cache, work, full)
                    if word is None:
                        continue
                specs[d] = spec
                found[d] = word
            if d == last:
                p, q = tuple(pts[: l + 1]), (pts[0],) + tuple(pts[l + 1 :])
                words = tuple(found[o.depth]
                              or _run_word(letters, specs[o.depth], n, reach_cache, work)
                              for o in occs)
                cex = Counterexample(BoundaryGuess(p, q), words)
                return ModelCheckResult(cex, gens)
            d += 1
            occ, i, exponent, _, prev = ending[d]
            choices = _offer(letters, occ, specs[prev], pts[i], exponent, reach_cache,
                             index_cache, work)
            work.charge(len(choices))
            pending[d] = iter(choices)
            break
        else:
            d -= 1
    return ModelCheckResult(None, gens)


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
