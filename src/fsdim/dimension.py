"""Upper-bound estimators for finite-state dimension.

An estimate is the least, over a supplied finite family of transducers, of
the worst point's least cost/n over the tail window [n_lo, n_max] of
precisions. Enlarging the family can only lower it, and leaving a row out
(flagged, or off a sampled grid) only raise it, so every number reported here
is an upper bound on that reading over all transducers. It is not a bound,
either way, on the liminf over n in the paper's characterization of dimension.
Nothing in this module claims a lower bound.

Every estimator is `estimate` with one row source: a point is a set of one,
a digit sequence is a point whose rows come from `kt` on its prefixes, and
`separator.dimf_estimate` reads `ktf_delta` rows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .digits import DigitStream, RealSpec, check_base, check_precision
from .errors import AllRowsFlagged, FsdimError
from .fst import Fst, make_block_huffman, make_identity, make_periodic_decoder
from .infocontent import PrefixSearch, kt
from .precision import kdelta_profile, profile_rows, shared_stream

#: above this many precisions the profile grid is subsampled. One search per
#: (transducer, point) walks the levels up to n_max either way, so the sample
#: bounds only the number of rows, and the estimate is a minimum over fewer
#: precisions (still a valid upper-bound reading of the window); reading
#: every n is ROADMAP item 3
FULL_GRID_LIMIT = 256
WINDOW_SAMPLES = 24
HEAD_SAMPLES = 8

DEFAULT_WINDOW_FRAC = Fraction(1, 2)
NORMALITY_THRESHOLD = Fraction(95, 100)

COMPRESSIBLE = "compressible (not normal)"
NO_COMPRESSION = "no compression found (consistent with normality)"


class EstimateReport(namedtuple("EstimateReport", "estimate per_transducer window verdict profiles")):
    """An estimate, each transducer's value and the window read; profiles
    maps a name to its tuple of ProfileRow, for one point only. The values
    are exact; `cli` formats them."""

    __slots__ = ()

    def __new__(cls, estimate: Fraction, per_transducer: dict, window: tuple,
                verdict: str = "", profiles: dict | None = None):
        return super().__new__(cls, estimate, per_transducer, window, verdict,
                               {} if profiles is None else profiles)


def _grid(n_lo: int, n_hi: int) -> list[int]:
    """All n in [1, n_hi] when small, else an evenly spaced subsample: the
    nearest integers to n_lo + (span - 1) * i / w and 1 + (n_lo - 2) * i / h,
    built as (2a + d) // (2d). h and w are odd, so no quotient is a tie."""
    if n_hi <= FULL_GRID_LIMIT:
        return list(range(1, n_hi + 1))
    span = n_hi - n_lo + 1
    h, w = HEAD_SAMPLES - 1, WINDOW_SAMPLES - 1
    head = {max(1, 1 + (2 * (n_lo - 2) * i + h) // (2 * h)) for i in range(HEAD_SAMPLES)}
    window = {n_lo + (2 * (span - 1) * i + w) // (2 * w) for i in range(WINDOW_SAMPLES)}
    return sorted(head | window)


def estimate(family, base: int, points, n_max: int, window_frac: Fraction, rows_of) -> EstimateReport:
    """The one estimator shape: per transducer the worst point's minimum
    ratio over the tail window [ceil(window_frac * n_max), n_max] (sup
    inside), then the best transducer (inf outside). A point is a set of one.

    `family` holds transducers or (name, transducer) pairs, all reading base
    `base`; an `Fst`, itself a tuple, is named T<i> by its index i in the
    family. rows_of(t, x, grid) gives one point's profile rows; flagged rows
    are left out, and a transducer is dropped at its first point without a
    usable row in the window. A point's window minimum and the worst point
    are kept as the (cost, n) of a row and compared by exact integer
    cross-multiplication, c * n' < c' * n; a transducer's value is the one
    Fraction built from its worst point, and only the best transducer is
    found by Fraction comparisons.
    """
    points = list(points)
    if not points:
        raise FsdimError("need at least one point")
    members = [(f"T{i}", m) if isinstance(m, Fst) else m for i, m in enumerate(family)]
    if not members:
        raise FsdimError("family must be nonempty")
    check_base(base)
    for name, t in members:
        if t.base != base:
            raise FsdimError(f"transducer {name} has base {t.base}, points are base {base}")
    if n_max < 2:
        raise FsdimError(f"n_max must be >= 2, got {n_max}")
    check_precision(n_max)
    n_lo = max(1, math.ceil(window_frac * n_max))
    grid = _grid(n_lo, n_max)
    per = {}
    profiles = {}
    for name, t in members:
        worst_cost = None  # the worst point's window minimum is worst_cost / worst_n
        for x in points:
            rows = rows_of(t, x, grid)
            if len(points) == 1:
                profiles[name] = tuple(rows)
            least_cost = None  # the window's least ratio is least_cost / least_n
            for n, cost, flags in rows:
                if n >= n_lo and not flags and (least_cost is None or cost * least_n < least_cost * n):
                    least_cost, least_n = cost, n
            if least_cost is None:
                break  # a point this transducer cannot handle: drop it
            if worst_cost is None or least_cost * worst_n > worst_cost * least_n:
                worst_cost, worst_n = least_cost, least_n
        else:
            per[name] = Fraction(worst_cost, worst_n)
    if not per:
        raise AllRowsFlagged("no transducer produced a usable row in the window for every point")
    return EstimateReport(min(per.values()), per, (n_lo, n_max), profiles=profiles)


def _kdelta_rows(base: int, n_max: int):
    """The point and set estimators' rows: one kdelta_profile per point."""
    return lambda t, x, grid: kdelta_profile([t], x, base, n_max, grid=grid)


def dim_point_estimate(family, x: RealSpec, base: int, n_max: int,
                       window_frac: Fraction = DEFAULT_WINDOW_FRAC) -> EstimateReport:
    """Upper-bound estimate of the base-b finite-state dimension of a point:
    min over the family of the min cost/n over the tail window."""
    return estimate(family, base, [x], n_max, window_frac, _kdelta_rows(base, n_max))


def dim_seq_estimate(family, s: DigitStream, n_max: int,
                     window_frac: Fraction = DEFAULT_WINDOW_FRAC) -> EstimateReport:
    """Upper-bound estimate of the finite-state dimension of a digit sequence:
    min over the family of the min kt(prefix of length n)/n over the window,
    each kt search capped at 2n + 8 inputs. One search per transducer walks
    the longest prefix and answers every shorter one, each sliced once."""
    check_precision(n_max)  # before the prefix is read
    word = s.prefix_str(s.available(n_max))  # read once for the whole family
    prefix = cache(lambda n: word[:n] if n <= len(word) else s.prefix_str(n))  # past a file's end: raises
    def rows_of(t, seq, grid):
        search = PrefixSearch(t, word)
        return profile_rows(grid, lambda n: kt(t, prefix(n), 2 * n + 8, search, False))

    return estimate(family, s.base, [s], n_max, window_frac, rows_of)


def dim_set_estimate(family, xs, base: int, n_max: int,
                     window_frac: Fraction = DEFAULT_WINDOW_FRAC) -> EstimateReport:
    """Upper-bound estimate for a finite set: per transducer take the worst
    point (sup inside), then the best transducer (inf outside)."""
    return estimate(family, base, xs, n_max, window_frac, _kdelta_rows(base, n_max))


def detect_periods(s: DigitStream) -> list[int]:
    """Exact repetition periods up to 32 of the first 256 digits, shortest first.

    A finite stream is probed over the digits it has; a period counts only
    when at least one whole repeat of it is seen.
    """
    probe_len = s.available(256)
    digs = s.prefix(probe_len)
    found = []
    for p in range(1, min(32, probe_len // 2) + 1):
        if all(digs[i] == digs[i + p] for i in range(probe_len - p)):
            found.append(p)
    return found


def normality_family(x: RealSpec, base: int, n_max: int,
                     max_block_len: int = 4) -> list[tuple[str, Fst]]:
    """Built-in family for the normality report: identity, block-Huffman
    decoders trained on the point's own prefix of min(n_max, 4096) digits,
    and periodic decoders for any detected repetition. A digit file trains on
    at most the digits it has."""
    members = [("identity", make_identity(base))]
    stream = shared_stream(x, base)  # the stream the report's searches read
    train_len = stream.available(min(n_max, 4096))
    for k in range(1, min(max_block_len, train_len) + 1):  # no longer block fits the training
        members.append((f"huffman(b{k})", make_block_huffman(stream, train_len, k)))
    periods = detect_periods(stream)
    if periods:
        pattern = stream.prefix_str(periods[0])
        for copies in (1, 2, 4, 8, 16):
            members.append((f"periodic({pattern})x{copies}",
                            make_periodic_decoder(pattern, copies, base)))
    return members


def normality_report(x: RealSpec, base: int, n_max: int, max_block_len: int = 4,
                     threshold: Fraction = NORMALITY_THRESHOLD) -> EstimateReport:
    """Dimension upper-bound estimate with a compressibility verdict.

    The verdict reads a finite window of precisions of one prefix of x, not
    x itself: it is evidence, never proof. Below the threshold, some
    transducer beat threshold * n at some n in the window, which short random
    prefixes do too (x is within b**-n of a shorter output when its digits
    before n end in a run of 0s or (b-1)s; 100 digits of random.Random(3) at
    n_max 40 read 23/29 on the identity). Above it, this family found none.
    """
    family = normality_family(x, base, n_max, max_block_len)
    report = dim_point_estimate(family, x, base, n_max)
    return report._replace(verdict=COMPRESSIBLE if report.estimate < threshold else NO_COMPRESSION)
