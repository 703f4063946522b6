"""Upper-bound estimators for finite-state dimension.

The liminf over precisions is approximated by the minimum cost/n ratio over a
tail window of n values, and the infimum over all transducers by the minimum
over a supplied finite family. Enlarging the family can only lower an
estimate, so every number reported here is an upper bound; nothing in this
module claims a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .digits import DigitStream, FileDigitStream, RealSpec
from .errors import AllRowsFlagged, FsdimError
from .fst import Fst, make_block_huffman, make_identity, make_periodic_decoder
from .infocontent import kt
from .precision import ProfileRow, kdelta_profile

#: above this many precisions the profile grid is subsampled to keep the
#: number of searches bounded; the estimate is then a minimum over fewer
#: sample points (still a valid upper-bound reading of the window)
FULL_GRID_LIMIT = 256
WINDOW_SAMPLES = 24
HEAD_SAMPLES = 8

DEFAULT_WINDOW_FRAC = Fraction(1, 2)
NORMALITY_THRESHOLD = Fraction(95, 100)

COMPRESSIBLE = "compressible (not normal)"
NO_COMPRESSION = "no compression found (consistent with normality)"


@dataclass(frozen=True)
class DimensionProfile:
    rows: tuple  # tuple[ProfileRow, ...]
    family: tuple  # transducer identifiers
    window: tuple  # (n_lo, n_hi)


@dataclass(frozen=True)
class EstimateReport:
    estimate: Fraction
    per_transducer: dict
    window: tuple
    verdict: str = ""
    profiles: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "estimate": str(self.estimate),
            "estimate_float": float(self.estimate),
            "per_transducer": {k: str(v) for k, v in self.per_transducer.items()},
            "window": list(self.window),
            "verdict": self.verdict,
        }


def _named(family) -> list[tuple[str, Fst]]:
    out = []
    for i, member in enumerate(family):
        if isinstance(member, tuple):
            out.append(member)
        else:
            out.append((f"T{i}", member))
    if not out:
        raise FsdimError("family must be nonempty")
    return out


def _window(n_max: int, window_frac: Fraction) -> tuple[int, int]:
    if n_max < 2:
        raise FsdimError(f"n_max must be >= 2, got {n_max}")
    return max(1, _ceil_frac(window_frac, n_max)), n_max


def _ceil_frac(frac: Fraction, n_max: int) -> int:
    v = frac * n_max
    return int(-(-v.numerator // v.denominator))


def _grid(n_lo: int, n_hi: int) -> list[int]:
    """All n in [n_lo, n_hi] when small, else an evenly spaced subsample."""
    span = n_hi - n_lo + 1
    if n_hi <= FULL_GRID_LIMIT:
        head = list(range(1, n_lo))
        return head + list(range(n_lo, n_hi + 1))
    head = sorted({max(1, round(1 + (n_lo - 2) * i / (HEAD_SAMPLES - 1))) for i in range(HEAD_SAMPLES)})
    window = sorted({n_lo + round((span - 1) * i / (WINDOW_SAMPLES - 1)) for i in range(WINDOW_SAMPLES)})
    return sorted(set(head) | set(window))


def _window_min(rows, n_lo: int) -> Fraction | None:
    best = None
    for row in rows:
        if row.flags or row.n < n_lo:
            continue
        if best is None or row.ratio < best:
            best = row.ratio
    return best


def dim_point_estimate(family, x: RealSpec, base: int, n_max: int,
                       window_frac: Fraction = DEFAULT_WINDOW_FRAC,
                       cap_input=None, cap_output=None) -> EstimateReport:
    """Upper-bound estimate of the base-b finite-state dimension of a point:
    min over the family of the min cost/n over the tail window."""
    members = _named(family)
    n_lo, n_hi = _window(n_max, window_frac)
    grid = _grid(n_lo, n_hi)
    per = {}
    profiles = {}
    for name, t in members:
        rows = kdelta_profile([t], x, base, n_max, cap_input, cap_output, grid=grid)
        profiles[name] = DimensionProfile(tuple(rows), (name,), (n_lo, n_hi))
        proxy = _window_min(rows, n_lo)
        if proxy is not None:
            per[name] = proxy
    if not per:
        raise AllRowsFlagged("no transducer produced a usable row in the window")
    return EstimateReport(min(per.values()), per, (n_lo, n_hi), profiles=profiles)


def dim_seq_estimate(family, s: DigitStream, n_max: int,
                     window_frac: Fraction = DEFAULT_WINDOW_FRAC,
                     cap=None) -> EstimateReport:
    """Upper-bound estimate of the finite-state dimension of a digit sequence:
    min over the family of the min kt(prefix of length n)/n over the window."""
    members = _named(family)
    n_lo, n_hi = _window(n_max, window_frac)
    grid = _grid(n_lo, n_hi)
    per = {}
    profiles = {}
    for name, t in members:
        rows = []
        running = None
        for n in grid:
            w = s.prefix_str(n)
            res = kt(t, w, cap=cap if cap is not None else 2 * n + 8)
            if res.found:
                ratio = Fraction(res.cost, n)
                running = ratio if running is None else min(running, ratio)
                rows.append(ProfileRow(n, res.cost, ratio, running))
            else:
                rows.append(ProfileRow(n, -1, Fraction(0),
                                       running if running is not None else Fraction(0),
                                       flags="cap" if res.status == "cap_exceeded" else "unreachable"))
        profiles[name] = DimensionProfile(tuple(rows), (name,), (n_lo, n_hi))
        proxy = _window_min(rows, n_lo)
        if proxy is not None:
            per[name] = proxy
    if not per:
        raise AllRowsFlagged("no transducer produced a usable row in the window")
    return EstimateReport(min(per.values()), per, (n_lo, n_hi), profiles=profiles)


def dim_set_estimate(family, xs, base: int, n_max: int,
                     window_frac: Fraction = DEFAULT_WINDOW_FRAC,
                     cap_input=None, cap_output=None) -> EstimateReport:
    """Upper-bound estimate for a finite set: per transducer take the worst
    point (sup inside), then the best transducer (inf outside)."""
    xs = list(xs)
    if not xs:
        raise FsdimError("need at least one point")
    members = _named(family)
    n_lo, n_hi = _window(n_max, window_frac)
    grid = _grid(n_lo, n_hi)
    per = {}
    for name, t in members:
        worst = None
        for x in xs:
            rows = kdelta_profile([t], x, base, n_max, cap_input, cap_output, grid=grid)
            proxy = _window_min(rows, n_lo)
            if proxy is None:
                worst = None  # a point this transducer cannot handle: drop it
                break
            worst = proxy if worst is None or proxy > worst else worst
        if worst is not None:
            per[name] = worst
    if not per:
        raise AllRowsFlagged("no transducer produced usable rows for every point")
    return EstimateReport(min(per.values()), per, (n_lo, n_hi))


def detect_periods(s: DigitStream, probe_len: int = 256, max_period: int = 32) -> list[int]:
    """Exact repetition periods of the first probe_len digits, shortest first.

    A finite stream is probed over the digits it has; a period counts only
    when at least one whole repeat of it is seen.
    """
    if isinstance(s, FileDigitStream):
        probe_len = min(probe_len, len(s))
    digs = s.prefix(probe_len)
    found = []
    for p in range(1, min(max_period, probe_len // 2) + 1):
        if all(digs[i] == digs[i + p] for i in range(probe_len - p)):
            found.append(p)
    return found


def normality_family(x: RealSpec, base: int, n_max: int, max_block_len: int = 4,
                     train_cap: int = 4096) -> list[tuple[str, Fst]]:
    """Built-in family for the normality report: identity, block-Huffman
    decoders trained on the point's own prefix, and periodic decoders for any
    detected repetition."""
    members = [("identity", make_identity(base))]
    stream = x.stream(base)
    train_len = min(n_max, train_cap)
    for k in range(1, max_block_len + 1):
        prefix_len = (train_len // k) * k
        if prefix_len < k:
            continue
        members.append((f"huffman(b{k})", make_block_huffman(stream, prefix_len, k, base)))
    periods = detect_periods(x.stream(base))
    if periods:
        p = periods[0]
        pattern = x.stream(base).prefix_str(p)
        for copies in (1, 2, 4, 8, 16):
            members.append((f"periodic({pattern})x{copies}",
                            make_periodic_decoder(pattern, copies, base)))
    return members


def normality_report(x: RealSpec, base: int, n_max: int, max_block_len: int = 4,
                     threshold: Fraction = NORMALITY_THRESHOLD,
                     window_frac: Fraction = DEFAULT_WINDOW_FRAC) -> EstimateReport:
    """Dimension upper-bound estimate with a compressibility verdict.

    The verdict is evidence, never proof: an estimate below the threshold
    exhibits actual finite-state compression, while an estimate above it only
    says this family found none.
    """
    family = normality_family(x, base, n_max, max_block_len)
    report = dim_point_estimate(family, x, base, n_max, window_frac)
    verdict = COMPRESSIBLE if report.estimate < threshold else NO_COMPRESSION
    return EstimateReport(report.estimate, report.per_transducer, report.window,
                          verdict=verdict, profiles=report.profiles)
