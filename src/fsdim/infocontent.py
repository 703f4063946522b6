"""Information content of a string relative to a transducer, and the search
core every content search shares.

`bfs` walks T's configurations (state, pos) breadth-first, where pos is what
a search needs to remember about the output so far; a search is one
`advance(pos, out)` that says whether emitting `out` from pos accepts, dies,
or moves to a new pos. `kt` is the exact-output search (pos = matched length
of w); `precision.kdelta` and the targeted enumerator's all-zero-output search
in `separator` are two more `advance` functions over the same loop.
kt_oracle re-derives kt's answer by plain enumeration of inputs in
length-then-lex order and exists so the two can be cross-checked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .digits import digits_to_str, str_to_digits
from .errors import FsdimError
from .fst import Fst

FOUND = "found"
UNREACHABLE = "unreachable"
CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class CostResult:
    status: str
    cost: int = 0
    witness_input: str = ""
    witness_output: str = ""

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def line(self) -> str:
        if self.found:
            return f"{self.status},{self.cost},{self.witness_input}"
        return f"{self.status},,"


#: what `advance` returns for a transition whose output is accepted
ACCEPT = object()


def bfs(t: Fst, advance, max_len: int) -> CostResult:
    """Breadth-first search over configurations (state, pos) of T from
    (start, 0), at most max_len inputs deep.

    advance(pos, out) returns ACCEPT, None to drop the transition, or the next
    pos. Configurations are deduplicated, so a finite pos space proves
    unreachability when the frontier empties; cap_exceeded means the input
    cap stopped a live frontier. The first accepted input is minimal and,
    among those, lexicographically least.
    """
    start = (t.start, 0)
    visited = {start}
    parents: dict = {}
    frontier = [start]
    level = 0
    while frontier and level < max_len:
        next_frontier = []
        for cfg in frontier:
            pos = cfg[1]
            for a, (q2, out) in enumerate(t.transitions[cfg[0]]):
                pos2 = advance(pos, out)
                if pos2 is None:
                    continue
                if pos2 is ACCEPT:
                    pi = digits_to_str(_path_to(parents, cfg) + [a])
                    return CostResult(FOUND, level + 1, pi, t.run(pi))
                nxt = (q2, pos2)
                if nxt not in visited:
                    visited.add(nxt)
                    parents[nxt] = (cfg, a)
                    next_frontier.append(nxt)
        frontier = next_frontier
        level += 1
    return CostResult(CAP_EXCEEDED if frontier else UNREACHABLE)


def _path_to(parents, cfg) -> list[int]:
    path = []
    while cfg in parents:
        cfg, a = parents[cfg]
        path.append(a)
    path.reverse()
    return path


def best_of(results) -> CostResult:
    """The cheapest found result (lexicographically least witness among equal
    costs); else cap_exceeded if any search was capped, else unreachable."""
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
    return CostResult(CAP_EXCEEDED if capped else UNREACHABLE)


def kt(t: Fst, w: str, cap: int = 64) -> CostResult:
    """Length of the shortest input pi with T(pi) = w, with a witness.

    pos is the matched length of w, so the search space is finite: unreachable
    outputs are proved unreachable, and cap_exceeded is reported only when
    the input-length cap truncates a still-live frontier. Among equal-cost
    witnesses the lexicographically smallest input is returned.
    """
    if cap < 0:
        raise FsdimError(f"cap must be >= 0, got {cap}")
    target = tuple(str_to_digits(w, t.base))
    m = len(target)
    if m == 0:
        return CostResult(FOUND, 0, "", "")

    def advance(i, out):
        j = i + len(out)
        if j > m or target[i:j] != out:
            return None
        return ACCEPT if j == m else j

    return bfs(t, advance, cap)


def enumerate_outputs(t: Fst, max_len: int, keep=None):
    """Yield (input digits, output digits, final state) for every input with
    |input| <= max_len, in length-then-lex order.

    `keep(out)` may prune a subtree: when it returns False for a node's output
    the node is still yielded but its extensions are skipped. Outputs only ever
    grow, so this is safe for prefix-closed keep predicates.
    """
    frontier = deque([((), (), t.start)])
    while frontier:
        pi, out, q = frontier.popleft()
        yield pi, out, q
        if len(pi) == max_len or (keep is not None and not keep(out)):
            continue
        for a in range(t.base):
            q2, o = t.transitions[q][a]
            frontier.append((pi + (a,), out + o, q2))


def kt_oracle(t: Fst, w: str, max_len: int = 12) -> CostResult:
    """Exhaustive enumeration of inputs in length-then-lex order.

    Returns the first input whose output equals w. Enumeration can never prove
    unreachability, so the not-found answer is always cap_exceeded.
    """
    if max_len < 0:
        raise FsdimError(f"max_len must be >= 0, got {max_len}")
    target = tuple(str_to_digits(w, t.base))
    m = len(target)
    keep = lambda out: len(out) <= m and target[: len(out)] == out
    for pi, out, _ in enumerate_outputs(t, max_len, keep=keep):
        if out == target:
            return CostResult(FOUND, len(pi), digits_to_str(pi), w)
    return CostResult(CAP_EXCEEDED)


def kt_oracle_table(t: Fst, max_len: int, max_out_len: int) -> dict:
    """Minimal cost and lex-least witness for every producible output of
    length <= max_out_len, by one enumeration pass. Batch form of kt_oracle."""
    table: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    keep = lambda out: len(out) <= max_out_len
    for pi, out, _ in enumerate_outputs(t, max_len, keep=keep):
        if len(out) <= max_out_len and out not in table:
            table[out] = (len(pi), pi)
    return table
