"""Information content of a string relative to a transducer, and the search
core every content search shares.

`Search` walks T's configurations (state, pos) breadth-first, where pos is
what a search needs to remember about the output so far. It is resumable:
one search per (transducer, target) walks its levels once and answers every
goal of that target from the level where the goal resolved. A search is a
subclass with one `advance(pos, out)`, which drops the emission of `out`
from pos or moves to a new pos, and reports the goals the emission
resolves; `walk`, the one level loop, keeps them in one map, `resolved`,
and every search is asked through `answer(goal, cap)`. `PrefixSearch` is the
exact-output search: pos is the matched length of a word, and one search
answers `kt` for every prefix of that word. `precision.PrecisionSearch`
answers `kdelta` at every precision b^-n, `_DeltaSearch` at one other
delta; `separator`'s targeted all-zero-output search is a fourth. A
witness is built from parent pointers only for a goal asked.

`distinct_outputs` is the one enumeration every oracle reads, independent
of `Search`; `kt_oracle` and `kt_oracle_table` re-derive kt's answers from
it, so the two can be cross-checked. A walk that empties before its cap
proves unreachable, as an exhausted search does (`first_output`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache, partial

from .digits import digits_to_str, str_to_digits
from .errors import FsdimError, InsufficientDigits
from .fst import Fst

FOUND = "found"
UNREACHABLE = "unreachable"
CAP_EXCEEDED = "cap_exceeded"


class CostResult(namedtuple("CostResult", "status cost witness_input witness_output",
                            defaults=(0, "", ""))):
    """A search's answer. A found result asked with `witness=False` is
    cost-only: status and cost are exact, the witness strings empty."""

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == FOUND


#: the one result of each flag, and the one cost-only found result of each
#: cost: answers share them, and build none per row
CAPPED = CostResult(CAP_EXCEEDED)
UNREACHED = CostResult(UNREACHABLE)
_cost_only = cache(partial(CostResult, FOUND))


class Search:
    """Resumable breadth-first search over configurations (state, pos) of T
    from (start, start_pos).

    Configurations are deduplicated, and `walk` expands the frontier one input
    symbol deeper per level, in frontier order and input symbols ascending. So
    the first transition to resolve a goal gives a minimal input and, among
    those, the lexicographically least. `advance(pos, out)` returns None to
    drop a transition or the next pos; to resolve goals it appends them to
    `hits`, and `walk` writes each into `resolved` as goal -> (level, path,
    input symbol); a path to a configuration is a chain of (path, symbol) links
    ending in None at the start. The hook `_prune` ends each level that
    resolves a goal and leaves a frontier.

    `answer(goal, cap)` answers a resolved goal at any cap and an open one
    only at a cap the search has not walked past; `capped` raises past it.
    An exhausted search, with no frontier left and not spent, answers an
    open goal `UNREACHED` at once. `precision.PrecisionSearch` also refuses
    a precision it gave up.

    A level that runs out of digits (InsufficientDigits) spends the search:
    goals resolved before the failing transition keep that first resolution,
    it walks no further, and every goal still open raises it again.
    """

    def __init__(self, t: Fst, start_pos):
        self.t = t
        start = (t.start, start_pos)
        self.visited = {start}
        self.frontier = [(start, None)]  # (configuration, path to it)
        self.level = 0
        self.resolved: dict = {}  # goal -> (level, path, symbol)
        self.hits: list = []
        self.spent = None  # the InsufficientDigits that ended the search

    def advance(self, pos, out):
        raise NotImplementedError

    def walk(self, goal, cap: int) -> None:
        """Walks levels while goal is open, a frontier is left and level < cap."""
        advance, hits, resolved, visited = self.advance, self.hits, self.resolved, self.visited
        rows = self.t.transitions
        try:
            while goal not in resolved and self.frontier and self.level < cap:
                level = self.level + 1
                frontier, hit = [], None
                for cfg, path in self.frontier:
                    pos = cfg[1]
                    for a, (q2, out) in enumerate(rows[cfg[0]]):
                        pos2 = advance(pos, out)
                        if hits:
                            hit = (level, path, a)
                            while hits:
                                resolved[hits.pop()] = hit
                        if pos2 is not None:
                            nxt = (q2, pos2)
                            if nxt not in visited:
                                visited.add(nxt)
                                frontier.append((nxt, (path, a)))
                self.frontier = frontier
                self.level = level
                if hit is not None and frontier:
                    self._prune()
        except InsufficientDigits as exc:
            self.spent = exc
            raise

    def _prune(self) -> None:
        """Drops the frontier configurations no open goal needs: none here."""

    def open(self, goal) -> bool:
        """Whether walking on may still resolve goal."""
        return goal not in self.resolved

    def capped(self, goal, cap: int) -> bool:
        """Whether open goal is cap_exceeded, not unreachable, at cap: a
        frontier is left there. Raises once the search has walked past it."""
        if self.level > cap:
            raise FsdimError(f"the search has walked past cap {cap} with goal {goal} open")
        return self.level == cap and bool(self.frontier)

    def answer(self, goal, cap: int, witness: bool = True) -> CostResult:
        """goal's result at input cap `cap`. A resolved goal is read off
        `resolved` before the walk. An open one, once `open` has accepted it,
        is `UNREACHED` at once on an exhausted search at any cap >= its
        level, and else walks the search while it stays open below the cap.
        A found result carries its witness only when `witness` is true, and
        a cost-only one is shared per cost, as the flagged `CAPPED` and
        `UNREACHED` are."""
        hit = self.resolved.get(goal)
        if hit is None:
            if self.open(goal) and self.spent is None:
                if not self.frontier and self.level <= cap:
                    return UNREACHED  # exhausted: no walk can resolve goal
                if self.level < cap:
                    self.walk(goal, cap)
            hit = self.resolved.get(goal)
            if hit is None:
                if self.spent is not None:
                    raise self.spent.with_traceback(None)
                return CAPPED if self.capped(goal, cap) else UNREACHED
        if hit[0] > cap:
            return CAPPED
        return self.witness(hit) if witness else _cost_only(hit[0])

    def witness(self, hit) -> CostResult:
        """The found result of a resolved goal, with its input and output."""
        level, link, a = hit
        path = []
        if level:
            path.append(a)
            while link is not None:
                link, a = link
                path.append(a)
            path.reverse()
        pi = digits_to_str(path)
        return CostResult(FOUND, level, pi, self.t.run(pi))


def best_of(results) -> CostResult:
    """The cheapest found result (lexicographically least witness among equal
    costs); else cap_exceeded if any search was capped, else unreachable.
    Among cost-only results the ties are broken by cost alone, so the first
    of the cheapest wins; rows read only its cost."""
    best = None
    capped = False
    for res in results:
        if res.status == FOUND:
            if best is None or (res.cost, res.witness_input) < (best.cost, best.witness_input):
                best = res
        elif res.status == CAP_EXCEEDED:
            capped = True
    if best is not None:
        return best
    return CAPPED if capped else UNREACHED


@lru_cache(maxsize=16)
def _word_digits(w: str, base: int) -> tuple:
    """w's digits, converted once per (word, base) for every search of it."""
    return tuple(str_to_digits(w, base))


class PrefixSearch(Search):
    """`kt` for every prefix of one word w: pos is the matched length of w,
    and goal j resolves at the first transition whose output is w[:j].

    A search for w[:n] alone walks exactly the configurations with pos < n
    that this one walks, at the same levels and in the same order, so an
    open prefix n is cap_exceeded at cap c iff some configuration of the
    frontier at level c has pos < n.
    """

    def __init__(self, t: Fst, w: str):
        super().__init__(t, 0)
        self.word = w
        self.target = _word_digits(w, t.base)
        self.resolved[0] = (0, None, None)

    def advance(self, i, out):
        j = i + len(out)
        if self.target[i:j] != out:  # also when out runs past the end of w
            return None
        if j not in self.resolved:
            self.hits.append(j)
        return j

    def capped(self, n: int, cap: int) -> bool:
        return super().capped(n, cap) and any(cfg[1] < n for cfg, _ in self.frontier)


def kt(t: Fst, w: str, cap: int = 64, search: PrefixSearch = None,
       witness: bool = True) -> CostResult:
    """Length of the shortest input pi with T(pi) = w, with a witness unless
    `witness` is false.

    pos is the matched length of w, so the search space is finite: unreachable
    outputs are proved unreachable, and cap_exceeded is reported only when
    the input-length cap truncates a still-live frontier. Among equal-cost
    witnesses the lexicographically smallest input is returned. `search`, a
    `PrefixSearch` of T over a word that w is a prefix of, answers every
    prefix from one walk; without it a fresh search is made for w.
    """
    if cap < 0:
        raise FsdimError(f"cap must be >= 0, got {cap}")
    if search is None:
        search = PrefixSearch(t, w)
    elif search.t is not t or not search.word.startswith(w):
        raise FsdimError("the search is for another transducer or word")
    return search.answer(len(w), cap, witness)


def distinct_outputs(t: Fst, max_len: int, keep=None):
    """Yield (input, output) digit tuples: each distinct output of an input
    of length <= max_len once, with its length-then-lex least input, in that
    order of inputs.

    A breadth-first walk visits each configuration (state, output) once,
    first by its least input: every continuation of a later path into it is
    no shorter and, at equal length, lexicographically larger. `keep(out)`,
    if given, must be prefix-closed; outputs it rejects are neither yielded
    nor expanded. The walk returns True when a level empties at or before
    max_len: every configuration that keep admits has been walked, so no
    input of any length has an output it did not yield. It returns False
    when the level at max_len is live.
    """
    if max_len < 0:
        raise FsdimError(f"max_len must be >= 0, got {max_len}")
    rows = t.transitions
    start = (t.start, ())
    seen, outputs = {start}, set()
    level = [((), start)] if keep is None or keep(()) else []
    for length in range(max_len + 1):
        if not level:
            return True
        nxt = []
        for pi, cfg in level:
            out = cfg[1]
            if out not in outputs:
                outputs.add(out)
                yield pi, out
            if length == max_len:
                continue
            for a, (q2, o) in enumerate(rows[cfg[0]]):
                cfg2 = (q2, out + o)
                if cfg2 not in seen and (keep is None or keep(cfg2[1])):
                    seen.add(cfg2)
                    nxt.append((pi + (a,), cfg2))
        level = nxt
    return False


def first_output(walk, accept) -> CostResult:
    """The first (input, output) of a `distinct_outputs` walk that
    accept(input, output) takes, as a found result. Not found is `UNREACHED`
    when a level of the walk emptied, and `CAPPED` when one was live at its
    cap."""
    while True:
        try:
            pi, out = next(walk)
        except StopIteration as end:
            return UNREACHED if end.value else CAPPED
        if accept(pi, out):
            return CostResult(FOUND, len(pi), digits_to_str(pi), digits_to_str(out))


def kt_oracle(t: Fst, w: str, max_len: int = 12) -> CostResult:
    """The first distinct output equal to w, inputs in length-then-lex order;
    not found is unreachable when no output that is a prefix of w is left
    to extend, else cap_exceeded."""
    target = tuple(str_to_digits(w, t.base))
    keep = lambda out: target[: len(out)] == out
    return first_output(distinct_outputs(t, max_len, keep), lambda pi, out: out == target)


def kt_oracle_table(t: Fst, max_len: int, max_out_len: int) -> dict:
    """{output: (least input length, length-then-lex least input)} for every
    output of length <= max_out_len of an input of length <= max_len, from
    one walk. Batch form of kt_oracle."""
    return {out: (len(pi), pi)
            for pi, out in distinct_outputs(t, max_len, lambda out: len(out) <= max_out_len)}
