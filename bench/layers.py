"""Per-layer metrics from the spans of one traced pass, and the span counts
each command must produce, computed from its inputs.

A span's self time is its duration minus its child spans' durations and
minus the counted per-node time recorded inside it.
"""

from __future__ import annotations

from collections import Counter

# Replica of fsdim.dimension's precision grid (window fraction 1/2), used to
# predict search counts from the command line alone.
FULL_GRID_LIMIT = 256
WINDOW_SAMPLES = 24
HEAD_SAMPLES = 8

GEN = ("fst.make_identity", "fst.make_periodic_decoder", "fst.make_block_huffman")
ESTIMATORS = ("dimension.dim_point_estimate", "dimension.dim_seq_estimate",
              "dimension.dim_set_estimate", "dimension.normality_report")
SEARCHES = ("precision.kdelta", "infocontent.kt")
FOUND, CAPPED = "found", "cap_exceeded"


def window_lo(n_max: int) -> int:
    return max(1, -(-n_max // 2))


def grid(n_max: int) -> list[int]:
    n_lo = window_lo(n_max)
    if n_max <= FULL_GRID_LIMIT:
        return list(range(1, n_max + 1))
    span = n_max - n_lo + 1
    head = {max(1, round(1 + (n_lo - 2) * i / (HEAD_SAMPLES - 1))) for i in range(HEAD_SAMPLES)}
    window = {n_lo + round((span - 1) * i / (WINDOW_SAMPLES - 1)) for i in range(WINDOW_SAMPLES)}
    return sorted(head | window)


def flag(argv, name, default=None):
    """A flag's value in argv; for the repeatable --x, the list of values."""
    values = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == name]
    return values if name == "--x" else (values[0] if values else default)


def expected_counts(argv, family_size: int) -> dict:
    """Span counts fixed by the command line and the family size alone."""
    exp = {"cli.dispatch": 1}
    F = family_size
    if "--fsts" in argv:
        exp["fst.parse_fst"] = F
    n_max = int(flag(argv, "--nmax"))
    G = len(grid(n_max))
    what = argv[0] if argv[0] != "dim" else f"dim {argv[1]}"
    if what == "profile":
        exp.update({"precision.kdelta_profile": 1, "precision.kdelta": F * n_max})
    elif what == "dim point":
        exp.update({"precision.kdelta_profile": F, "precision.kdelta": F * G})
    elif what == "dim seq":
        exp.update({"infocontent.kt": F * G})
    elif what == "sedim":
        exp.update({"separator.ktf_delta": F * G * len(flag(argv, "--x"))})
    elif what == "normality":
        # identity plus one Huffman decoder per block length; Champernowne has no period
        k = int(flag(argv, "--k", 4))
        exp.update({"gen": 1 + k, "precision.kdelta_profile": 1 + k,
                    "precision.kdelta": (1 + k) * G})
    return exp


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def check_counts(argv, family_size: int, spans) -> list[str]:
    """Mismatches between the traced counts and the counts the inputs fix."""
    counts = Counter(s[0] for s in spans)
    counts["gen"] = sum(counts[g] for g in GEN)
    errors = [f"{name}: traced {counts[name]}, expected {want}"
              for name, want in expected_counts(argv, family_size).items() if counts[name] != want]
    if argv[:2] == ["dim", "set"]:
        errors += _check_dim_set(argv, family_size, spans)
    return errors


def _check_dim_set(argv, F, spans) -> list[str]:
    """dim set profiles each transducer at each point in order until a point
    has no usable window row; predict that sequence from the searches."""
    n_max = int(flag(argv, "--nmax"))
    n_lo, G, P = window_lo(n_max), len(grid(n_max)), len(flag(argv, "--x"))
    kids = _children(spans)
    groups = []  # per transducer: usable flag of each profiled point
    for i, s in enumerate(spans):
        if s[0] != "precision.kdelta_profile":
            continue
        searches = [spans[c][5] for c in kids[i] if spans[c][0] == "precision.kdelta"]
        if len(searches) != G or len({a["t"] for a in searches}) != 1:
            return [f"kdelta_profile span {i}: {len(searches)} searches, expected {G} on one transducer"]
        usable = any(a["status"] == FOUND and a["n"] >= n_lo for a in searches)
        if groups and groups[-1][0] == searches[0]["t"]:
            groups[-1][1].append(usable)
        else:
            groups.append((searches[0]["t"], [usable]))
    errors = []
    if len(groups) != F:
        errors.append(f"dim set profiled {len(groups)} transducers, expected {F}")
    for t, flags in groups:
        want = next((i + 1 for i, ok in enumerate(flags) if not ok), P)
        if len(flags) != want:
            errors.append(f"dim set profiled {len(flags)} points of a transducer, expected {want}")
            break
    return errors


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(traces) -> dict:
    """Per-layer metrics of one traced pass (one exported trace per command)."""
    c = Counter()
    t = Counter()  # seconds; float() below so that an absent layer reads 0.0
    counters = Counter()
    for trace in traces:
        spans = trace["spans"]
        kids = _children(spans)
        dur = [s[2] - s[1] for s in spans]
        selfs = [dur[i] - sum(dur[k] for k in kids[i]) - s[4] for i, s in enumerate(spans)]
        stream_keys, bound_keys = set(), set()
        for i, (name, _, _, parent, _, attrs) in enumerate(spans):
            c[name] += 1
            t[name] += dur[i]
            t["self:" + name] += selfs[i]
            layer = name.split(".", 1)[0]
            if layer == "dimension":
                t["dimension.self"] += selfs[i]
            if name == "digits.RealSpec.stream":
                stream_keys.add(attrs["key"])
            if name in SEARCHES or name == "separator.ktf_delta":
                c[name + ":found"] += attrs["status"] == FOUND
            if name in SEARCHES:
                c[name + ":capped"] += attrs["status"] == CAPPED
                c[name + ":levels"] += (attrs["cost"] if attrs["status"] == FOUND
                                        else attrs["cap"] if attrs["status"] == CAPPED else 0)
            if name == "precision.kdelta":
                bound_keys.add(attrs["key"])
            ancestors = list(_ancestors(spans, parent))
            if name in ESTIMATORS and not any(spans[a][0] in ESTIMATORS for a in ancestors):
                c["dimension.estimates"] += 1
                t["dimension.estimates"] += dur[i]
            if name in SEARCHES and any(spans[a][0] in ESTIMATORS for a in ancestors):
                c["dimension.rows"] += 1
                c["dimension.rows_flagged"] += attrs["status"] != FOUND
        c["digits.stream_distinct"] += len(stream_keys)
        c["precision.bounds_distinct"] += len(bound_keys)
        for name, (calls, seconds) in trace["counters"].items():
            counters[name + ":calls"] += calls
            counters[name + ":s"] += seconds
    gen_calls = sum(c[g] for g in GEN)
    return {
        "cli.commands": c["cli.dispatch"],
        "cli.self_s": float(t["self:cli.dispatch"]),
        "fst.parse_calls": c["fst.parse_fst"],
        "fst.parse_s": float(t["fst.parse_fst"]),
        "fst.gen_calls": gen_calls,
        "fst.gen_s": float(sum(t[g] for g in GEN)),
        "digits.stream_calls": c["digits.RealSpec.stream"],
        "digits.stream_s": float(t["digits.RealSpec.stream"]),
        "digits.stream_distinct": c["digits.stream_distinct"],
        "digits.stream_distinct_ratio": _ratio(c["digits.stream_distinct"], c["digits.RealSpec.stream"]),
        "digits.file_reads": c["digits.FileDigitStream.from_file"],
        "digits.file_read_s": float(t["digits.FileDigitStream.from_file"]),
        "infocontent.kt_calls": c["infocontent.kt"],
        "infocontent.kt_s": float(t["infocontent.kt"]),
        "infocontent.kt_found": c["infocontent.kt:found"],
        "infocontent.kt_found_ratio": _ratio(c["infocontent.kt:found"], c["infocontent.kt"]),
        "infocontent.kt_levels": c["infocontent.kt:levels"],
        "precision.kdelta_calls": c["precision.kdelta"],
        "precision.kdelta_s": float(t["precision.kdelta"]),
        "precision.kdelta_self_s": float(t["self:precision.kdelta"]),
        "precision.kdelta_found": c["precision.kdelta:found"],
        "precision.kdelta_found_ratio": _ratio(c["precision.kdelta:found"], c["precision.kdelta"]),
        "precision.kdelta_capped": c["precision.kdelta:capped"],
        "precision.kdelta_cap_ratio": _ratio(c["precision.kdelta:capped"], c["precision.kdelta"]),
        "precision.kdelta_levels": c["precision.kdelta:levels"],
        "precision.bounds_distinct": c["precision.bounds_distinct"],
        "precision.bounds_distinct_ratio": _ratio(c["precision.bounds_distinct"], c["precision.kdelta"]),
        "precision.profile_calls": c["precision.kdelta_profile"],
        "precision.profile_s": float(t["precision.kdelta_profile"]),
        "dimension.estimate_calls": c["dimension.estimates"],
        "dimension.estimate_s": float(t["dimension.estimates"]),
        "dimension.self_s": float(t["dimension.self"]),
        "dimension.rows": c["dimension.rows"],
        "dimension.rows_flagged": c["dimension.rows_flagged"],
        "separator.ktf_calls": c["separator.ktf_delta"],
        "separator.ktf_s": float(t["separator.ktf_delta"]),
        "separator.ktf_self_s": float(t["self:separator.ktf_delta"]),
        "separator.ktf_found": c["separator.ktf_delta:found"],
        "separator.ktf_found_ratio": _ratio(c["separator.ktf_delta:found"], c["separator.ktf_delta"]),
        "separator.eval_calls": counters["separator.SeparatorEnumerator.eval:calls"],
        "separator.eval_s": float(counters["separator.SeparatorEnumerator.eval:s"]),
        "trace.spans": sum(len(tr["spans"]) for tr in traces),
    }


def _ancestors(spans, parent):
    while parent >= 0:
        yield parent
        parent = spans[parent][3]
