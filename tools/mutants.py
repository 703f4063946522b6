#!/usr/bin/env python3
"""Mutation checks: each mutant is one deliberate defect in `src/fsdim`, and
the tests named with it must fail on it.

    python3 tools/mutants.py

`src/` is copied to a temporary directory once. The tests named by all the
mutants first run on the unmutated copy, which must pass them. Then each
mutant replaces one exact snippet of one file in the copy, runs only its
named tests (`python -m pytest -x`, with PYTHONPATH at the copy) under a
timeout of TIMEOUT seconds, and puts the file back. Each mutant is reported as

- killed: its tests failed, or ran past the timeout;
- survived: its tests passed, so none of them catches the defect;
- stale: its snippet does not occur exactly once, so the code it mutated
  has changed. A stale mutant is a report line, not a failure: rewrite it
  for the new code or drop it.

The exit status is 1 when a mutant survives, a test run cannot start, or the
unmutated copy fails its tests, else 0. The tests run with the temporary
directory as their working directory, so the repository gains no cache.
Standard library only; pytest runs as a child process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per test run

#: file is relative to src/fsdim; tests are pytest node ids relative to the root
Mutant = namedtuple("Mutant", "name file snippet replacement tests")

MUTANTS = [
    # the search core and its inputs
    Mutant("walk-without-prune", "infocontent.py",
           "                if hit is not None and frontier:\n                    self._prune()\n",
           "", ["tests/test_level_invariant.py"]),
    Mutant("walk-past-resolved-goal", "infocontent.py",
           "while goal not in resolved and self.frontier and self.level < cap:",
           "while self.frontier and self.level < cap:", ["tests/test_walk.py"]),
    Mutant("exhausted-search-answers-below-its-level", "infocontent.py",
           "if not self.frontier and self.level <= cap:", "if not self.frontier:",
           ["tests/test_infocontent.py::TestPrefixSearch::test_asking_back",
            "tests/test_precision.py::TestSharedSearch::test_asking_back",
            "tests/test_exhausted_search.py"]),
    Mutant("walk-one-level-past-cap", "infocontent.py",
           "while goal not in resolved and self.frontier and self.level < cap:",
           "while goal not in resolved and self.frontier and self.level <= cap:",
           ["tests/test_walk.py"]),
    Mutant("through-d1-reads-digit-1", "precision.py",
           "r = self._run(j, b - 1, hi + 1)", "r = self._run(j, 1, hi + 1)",
           ["tests/test_other_bases.py"]),
    Mutant("buffer-miss-reads-zero", "precision.py",
           "                try:\n"
           "                    xj = self.digit(j)\n"
           "                except InsufficientDigits as exc:\n"
           "                    return self._cut(j, D, g, exc)\n",
           "                xj = 0\n",
           ["tests/test_precision.py::TestSharedSearch::"
            "test_a_walk_past_the_buffer_fills_it_and_matches_the_oracle"]),
    Mutant("settle-minus-one-through-j", "precision.py",
           "self._solve(g, min(j - 1, hi))", "self._solve(g, min(j, hi))",
           ["tests/test_precision.py::TestSharedSearch"]),
    Mutant("track-exponent-not-incremented", "precision.py",
           "return -j, j - g", "return -j, D",
           ["tests/test_level_invariant.py", "tests/test_cli.py::TestKdeltaCommand"]),
    Mutant("track-end-as-plain-offset", "precision.py",
           "return -j, j - g", "return j, -b ** (j - g)", ["tests/test_level_invariant.py"]),
    Mutant("track-cut-at-offset-only", "precision.py",
           "return self._cut(j, o - b ** (j - g), g, exc)", "return self._cut(j, o, g, exc)",
           ["tests/test_precision.py::TestSharedSearch::"
            "test_the_track_past_a_goal_is_cut_at_the_end_of_a_file"]),
    # the walk on the expansion of x - delta at a delta that is not b**-n
    Mutant("delta-keeps-outputs-above-the-track", "precision.py",
           "        return None if E else i\n", "        return i\n",
           ["tests/test_level_invariant.py::test_a_walk_that_leaves_the_track_outside_is_unreachable"]),
    Mutant("delta-keeps-outputs-below-the-track", "precision.py",
           "            if E < 0:\n                return None\n", "",
           ["tests/test_level_invariant.py::test_a_delta_that_is_not_a_power_matches_the_oracle"]),
    Mutant("delta-later-hit-overwrites-the-goal", "precision.py",
           "        if self.resolved:  # the first hit answers the goal; no later one may overwrite it\n"
           "            return None\n",
           "", ["tests/test_level_invariant.py::test_a_delta_that_is_not_a_power_matches_the_oracle"]),
    Mutant("query-without-cap-check", "precision.py",
           "        elif cap_input < 0:\n", "        elif False:\n",
           ["tests/test_separator.py"]),
    Mutant("query-accepts-digit-only-off-power", "precision.py",
           "            elif x.exact_value(base) is None:\n", "            elif False:\n",
           ["tests/test_precision.py::TestDigitStreamPath::test_digit_stream_needs_power_delta"]),
    Mutant("query-rebuild-drops-other-delta", "precision.py",
           "    @property\n    def delta(self) -> Fraction:\n",
           "    def __getnewargs__(self):\n"
           "        return self.x, self.base, None, self.cap_input, self.n\n\n"
           "    @property\n    def delta(self) -> Fraction:\n",
           ["tests/test_value_types.py::test_a_query_keeps_its_n_true"]),
    Mutant("fraction-arg-without-exponent-bound", "cli.py",
           "if e and abs(int(exponent)) > MAX_EXPONENT:", "if False:",
           ["tests/test_cli.py::TestBadValuesExitCleanly"]),
    Mutant("fst-without-start-check", "fst.py",
           "if not (0 <= start < state_count):", "if False:",
           ["tests/test_fst.py"]),
    Mutant("fst-without-target-check", "fst.py",
           "if not (0 <= nxt < state_count):", "if False:",
           ["tests/test_fst.py"]),
    Mutant("fst-duplicate-transition-unchecked", "fst.py",
           "        elif row[a] is not None:\n", "        elif False:\n",
           ["tests/test_fst.py"]),
    Mutant("fst-output-memo-ignores-base", "fst.py",
           "@lru_cache(maxsize=1024)\n",
           "@lambda f: lambda field, base, memo={}: memo[field] if field in memo "
           "else memo.setdefault(field, f(field, base))\n",
           ["tests/test_fst.py::TestFileFormat::test_an_output_field_is_read_in_its_own_base"]),
    Mutant("content-lines-keeps-comments", "digits.py",
           'line = raw.split("#", 1)[0].strip()', "line = raw.strip()",
           ["tests/test_separator.py", "tests/test_fst.py"]),
    Mutant("huffman-without-padding", "fst.py",
           "pad = (1 - len(heap)) % (base - 1) if base > 2 else 0", "pad = 0",
           ["tests/test_closed_forms.py"]),
    Mutant("huffman-in-base-2", "fst.py",
           "    base = train.base\n", "    base = 2\n",
           ["tests/test_closed_forms.py"]),
    # the separator layer
    Mutant("zero-verdicts-without-exact-target", "separator.py",
           "_ZeroVerdicts(f, q, x_stream.compare, stream.value)",
           "_ZeroVerdicts(f, q, x_stream.compare, None)",
           ["tests/test_separator.py"]),
    Mutant("zero-verdicts-below-before-dead-test", "separator.py",
           "        reach = value + Fraction(1, self.base ** _target_len(k)) if self.y is None else self.y\n"
           "        if not below_high or self.cmp(reach + self.delta) >= 0:\n"
           "            self.dead = k\n"
           "            return _DEAD\n"
           "        self.below = k\n",
           "        self.below = k\n"
           "        reach = value + Fraction(1, self.base ** _target_len(k)) if self.y is None else self.y\n"
           "        if not below_high or self.cmp(reach + self.delta) >= 0:\n"
           "            self.dead = k\n"
           "            return _DEAD\n",
           ["tests/test_separator.py::TestKtfDeltaMatchesOracle::test_pool_slice"]),
    Mutant("zero-verdicts-keyed-by-k-alone", "separator.py",
           "zero = verdicts.get((x_stream, q))", "zero = next(iter(verdicts.values()), None)",
           ["tests/test_separator.py::TestKtfDeltaMatchesOracle::test_pool_slice[targeted(1/3)]"]),
    Mutant("zero-verdicts-keyed-by-the-query-alone", "separator.py",
           "        zero = verdicts.get((x_stream, q))\n"
           "        if zero is None:\n"
           "            zero = verdicts[x_stream, q] = ",
           "        zero = verdicts.get(q)\n"
           "        if zero is None:\n"
           "            zero = verdicts[q] = ",
           ["tests/test_separator.py::TestKtfDeltaMatchesOracle::"
            "test_a_digit_file_rewritten_between_two_calls_is_read_afresh"]),
    Mutant("blockperm-search-is-kdelta", "separator.py",
           "return kdelta_oracle(t, q, f)", "return kdelta(t, q, search, witness)",
           ["tests/test_separator.py::TestKtfDeltaAsksOnlyItsSearch::"
            "test_blockperm_is_answered_by_the_enumeration"]),
    Mutant("targeted-reads-its-own-stream", "separator.py",
           "stream = shared_stream(x, base)", "stream = x.stream(base)",
           ["tests/test_separator.py::TestKtfDeltaAsksOnlyItsSearch::"
            "test_targeted_at_its_own_digit_file_reads_it_once"]),
    Mutant("ktf-delta-without-base-check", "separator.py",
           '    if f.base != q.base:\n'
           '        raise FsdimError(f"enumerator base {f.base} != query base {q.base}")\n',
           "", ["tests/test_separator.py"]),
    Mutant("dimf-row-query-without-cap", "separator.py",
           "PrecisionQuery.at_scale(x, base, n, max_input_len)",
           "PrecisionQuery.at_scale(x, base, n)",
           ["tests/test_precision.py::TestPerRowWork"]),
    Mutant("dimf-estimate-in-base-2", "separator.py",
           "    base = f.base\n", "    base = 2\n",
           ["tests/test_separator.py::TestDimfEstimate"]),
    # the two questions about a point: where its expansion ends, and its side of r
    Mutant("zero-tail-one-power-too-many", "digits.py",
           "return pow(self.base, m, self.value.denominator) == 0",
           "return pow(self.base, m + 1, self.value.denominator) == 0",
           ["tests/test_digits.py"]),
    Mutant("zero-tail-within-64-digits", "digits.py",
           "        return not any(map(self.digit, count(m)))\n",
           "        if not any(map(self.digit, range(m, m + 64))):\n"
           "            raise InsufficientDigits(f\"no nonzero digit from {m} within 64\")\n"
           "        return False\n",
           ["tests/test_cli.py::TestShortDigitFile::"
            "test_a_nonzero_digit_far_down_the_file_decides_a_tail"]),
    Mutant("compare-reads-past-the-file", "digits.py",
           "have = self.available(m)", "have = m",
           ["tests/test_digits.py::TestFileStreamsDecideWhatTheirDigitsDecide::"
            "test_compare_raises_only_inside_the_cylinder"]),
    # tests that must read the package under test, not src/ beside them
    Mutant("separator-imports-a-private-name", "separator.py",
           "from .precision import (\n", "from .precision import (\n    _stream,\n",
           ["tests/test_module_boundaries.py"]),
    Mutant("entry-point-exits-zero", "cli.py",
           'if __name__ == "__main__":\n    main()\n', 'if __name__ == "__main__":\n    dispatch()\n',
           ["tests/test_cli.py::test_python_m_entry_point_exits_with_one_line"]),
    Mutant("one-parser-ignores-leftover-args", "cli.py",
           "        if not extra:\n", "        if True:\n",
           ["tests/test_one_parser.py::test_the_one_parser_path_is_the_full_tree_byte_for_byte"]),
    Mutant("json-keys-in-hash-order", "cli.py",
           "json.dumps(json_obj, sort_keys=True)", "json.dumps({k: json_obj[k] for k in set(json_obj)})",
           ["tests/test_metamorphic.py::TestHashSeedIndependence"]),
    # the row builders: one shared row per (n, cost, flags), one stream per profile
    Mutant("rows-built-per-row", "precision.py",
           "_row = lru_cache(maxsize=1024)(ProfileRow)", "_row = ProfileRow",
           ["tests/test_shared_rows.py::test_rows_equal_fresh_rows_and_equal_rows_are_one_object"]),
    Mutant("row-cache-drops-the-flags", "precision.py",
           "_row = lru_cache(maxsize=1024)(ProfileRow)",
           "_row = lambda n, cost, flags, memo={}: memo.setdefault((n, cost), ProfileRow(n, cost, flags))",
           ["tests/test_shared_rows.py::test_flagged_rows_keep_their_flags_at_one_precision"]),
    Mutant("row-table-unbounded", "precision.py",
           "_row = lru_cache(maxsize=1024)(ProfileRow)", "_row = lru_cache(maxsize=None)(ProfileRow)",
           ["tests/test_shared_rows.py::test_a_long_profile_keeps_a_bounded_row_table"]),
    Mutant("profile-hi-from-n-max", "precision.py",
           "hi = stream.available(max(grid, default=0))", "hi = max(grid, default=0)",
           ["tests/test_shared_rows.py::test_flagged_rows_keep_their_flags_at_one_precision"]),
    Mutant("profile-stream-per-member", "precision.py",
           "searches = [PrecisionSearch(t, x, stream, hi) for t in ts]",
           "searches = [open_search(t, x, base, hi) for t in ts]",
           ["tests/test_shared_rows.py::test_one_stream_per_family_profile"]),
    Mutant("seq-prefix-past-the-file-is-the-word", "dimension.py",
           "word[:n] if n <= len(word) else s.prefix_str(n)", "word[:n]",
           ["tests/test_shared_rows.py::test_rows_equal_fresh_rows_and_equal_rows_are_one_object"]),
    # the readers of profile rows: no float decides, and every view is exact
    Mutant("csv-running-inf-takes-flagged-rows", "cli.py",
           "if not flags and (least is None or cost * least[1] < least[0] * n):",
           "if least is None or cost * least[1] < least[0] * n:",
           ["tests/test_row_comparisons.py::test_profile_csv_matches_the_fraction_reference"]),
    Mutant("grid-rounds-up", "dimension.py",
           "n_lo + (2 * (span - 1) * i + w) // (2 * w)", "n_lo - (-(span - 1) * i // w)",
           ["tests/test_exact_arithmetic.py::"
            "test_the_integer_grid_equals_the_float_grid_and_the_bench_replica"]),
    Mutant("estimate-compares-by-true-division", "dimension.py",
           "least_cost * worst_n > worst_cost * least_n", "least_cost / least_n > worst_cost / worst_n",
           ["tests/test_exact_arithmetic.py::test_float_only_in_output_formatters"]),
    # the oracles, which the searches are checked against
    Mutant("distinct-outputs-lex-largest-input", "infocontent.py",
           "for a, (q2, o) in enumerate(rows[cfg[0]]):",
           "for a, (q2, o) in reversed(list(enumerate(rows[cfg[0]]))):",
           ["tests/test_infocontent.py"]),
    Mutant("kdelta-oracle-depth-12", "precision.py",
           "distinct_outputs(t, q.cap_input)", "distinct_outputs(t, 12)",
           ["tests/test_precision.py::TestKdeltaOracle"]),
    Mutant("kdelta-oracle-twice-delta", "precision.py",
           "if near(value(out), delta):", "if near(value(out), 2 * delta):",
           ["tests/test_precision.py"]),
    Mutant("oracle-table-closed-below", "precision.py",
           "i = bisect_right(values, x - delta)", "i = bisect_left(values, x - delta)",
           ["tests/test_separator.py", "tests/test_precision.py"]),
    Mutant("kt-oracle-table-short-outputs", "infocontent.py",
           "lambda out: len(out) <= max_out_len", "lambda out: len(out) < max_out_len",
           ["tests/test_infocontent.py", "tests/test_other_bases.py"]),
]


def run_tests(tests, src: Path, cwd: Path):
    """(exit status or None on timeout, seconds) of pytest on the node ids."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--rootdir", str(ROOT), *(str(ROOT / t) for t in tests)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0
    return proc.returncode, time.perf_counter() - t0


def verdict(status) -> str:
    """pytest's exit status as a mutant's fate: 0 passed, 1 failed, 2 a
    collection error (the mutant broke an import); anything else means the
    run itself went wrong."""
    if status is None:
        return "killed (timeout)"
    return {0: "survived", 1: "killed", 2: "killed"}.get(status, f"error (pytest exit {status})")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fsdim-mutants-") as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in MUTANTS for t in m.tests})
        status, seconds = run_tests(tests, src, tmp)
        print(f"{'unmutated':<9} {len(tests)} test targets ({seconds:.1f} s)", flush=True)
        if status != 0:
            print(f"the unmutated copy fails its tests (pytest exit {status}); no mutant was run")
            return 1

        fates = []
        for m in MUTANTS:
            path = src / "fsdim" / m.file
            original = path.read_text()
            if original.count(m.snippet) != 1:
                fate, note = "stale", f"snippet occurs {original.count(m.snippet)} times"
            else:
                path.write_text(original.replace(m.snippet, m.replacement))
                try:
                    status, seconds = run_tests(m.tests, src, tmp)
                finally:
                    path.write_text(original)
                fate, note = verdict(status), f"{seconds:.1f} s"
            fates.append(fate)
            print(f"{fate:<9} {m.name} ({m.file}; {' '.join(m.tests)}; {note})", flush=True)

    counts = {f: fates.count(f) for f in dict.fromkeys(fates)}
    summary = ", ".join(f"{n} {f}" for f, n in counts.items())
    print(f"{len(fates)} mutants: {summary}; {time.perf_counter() - start:.1f} s in all")
    return 1 if any(f == "survived" or f.startswith("error") for f in fates) else 0


if __name__ == "__main__":
    sys.exit(main())
