#!/usr/bin/env python3
"""fsdim benchmark: CLI workloads, each command in a fresh child process.

    python3 bench/run.py --workload pool-family --seed 20260823 --seconds 30 --trace 0
    python3 bench/run.py --record-golden

Every command runs through `fsdim.cli.dispatch` in its own child, one at a
time, because CLI users pay for each command in a new process. The child
times `dispatch` and a fixed reference workload; the parent times spawn to
ready (`setup_s`), scales both times to a nominal host speed, and checks the
child's stdout byte for byte against bench/golden. With --trace 1 the run
alternates untraced passes with passes traced by bench/tracer.py and prints
the per-layer metrics instead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden"
RUN_LIMIT_S = 170  # a run, children included, must end within 180 s
# child.reference_work's time at nominal host speed. The host's speed swings
# by more than 1.5x over seconds to minutes, so reported times are scaled by
# REFERENCE_S / (the command's own reference time).
REFERENCE_S = 0.018

import layers  # noqa: E402  (bench/ is sys.path[0])
import spotcheck  # noqa: E402
from inputs import write_inputs  # noqa: E402


def run_command(cmd, work: Path, traced: bool, deadline: float, golden: bool = True) -> dict:
    """Run one command in a child; return its timings, stdout and problems."""
    report = work / "child-report.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(SRC), str(report),
            "1" if traced else "0", *cmd["argv"]]
    res = {"id": cmd["id"], "problems": [], "stdout": b""}
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=work, capture_output=True,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        res["problems"].append("timed out")
        return res
    res["stdout"] = proc.stdout
    if proc.returncode != 0:
        res["problems"].append(f"exit code {proc.returncode}")
    if b"Traceback" in proc.stderr:
        res["problems"].append("traceback on stderr")
    if golden:
        expected = GOLDEN / f"{cmd['id']}.out"
        if not expected.is_file() or expected.read_bytes() != proc.stdout:
            res["problems"].append("stdout differs from the golden output")
    if report.is_file():
        out = json.loads(report.read_text())
        res.update(setup_s=out["ready"] - spawn, dispatch_s=out["dispatch_s"],
                   scale=REFERENCE_S / out["reference_s"],
                   maxrss_kb=out["maxrss_kb"], trace=out.get("trace"))
    else:
        res["problems"].append("child wrote no report")
    return res


def family_size(cmd, inputs) -> int:
    fsts = layers.flag(cmd["argv"], "--fsts")
    return len(inputs[fsts]) if fsts else 0


def run_pass(commands, work, traced, deadline, inputs) -> dict:
    results = [run_command(cmd, work, traced, deadline) for cmd in commands]
    if traced:
        for cmd, res in zip(commands, results):
            if res.get("trace"):
                res["problems"] += layers.check_counts(
                    cmd["argv"], family_size(cmd, inputs), res["trace"]["spans"])
    timed = [r for r in results if "dispatch_s" in r]
    return {
        "results": results,
        "raw_wall_s": sum(r["dispatch_s"] for r in timed),
        "wall_s": sum(r["dispatch_s"] * r["scale"] for r in timed),
        "raw_setup_s": [r["setup_s"] for r in timed],
        "setup_s": [r["setup_s"] * r["scale"] for r in timed],
        "maxrss_kb": max((r["maxrss_kb"] for r in timed), default=0),
    }


def spot_checks(commands, first_pass, inputs, seed) -> list[str]:
    sys.path.insert(0, str(SRC))
    rng = random.Random(seed)
    errors = []
    for cmd, res in zip(commands, first_pass["results"]):
        check = spotcheck.CHECKS.get(cmd["id"])
        if check and not res["problems"]:
            errors += check(res["stdout"], cmd["argv"], inputs, rng)
    return errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args, plan, spec) -> int:
    workload = plan["workloads"][args.workload]
    commands = workload["commands"]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = write_inputs(plan["inputs"], str(work), args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    # compile fsdim's bytecode before anything is timed
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import fsdim.cli",
                    str(SRC)], check=True)

    untraced, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(run_pass(commands, work, False, deadline, inputs))
        if args.trace:
            traced.append(run_pass(commands, work, True, deadline, inputs))
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(len(p["results"]) for p in passes)
    failures = [(r["id"], msg) for p in passes for r in p["results"] for msg in r["problems"]]
    failed = sum(1 for p in passes for r in p["results"] if r["problems"])
    spot_errors = spot_checks(commands, untraced[0], inputs, args.seed)
    for cmd_id, msg in failures[:20]:
        print(f"FAIL {cmd_id}: {msg}", file=sys.stderr)
    for msg in spot_errors:
        print(f"SPOT-CHECK FAIL {msg}", file=sys.stderr)

    scales = [r["scale"] for p in untraced for r in p["results"] if "scale" in r]
    if not scales:
        print("error: no command completed; nothing was measured", file=sys.stderr)
        return 1
    walls = [p["wall_s"] for p in untraced]
    print(f"workload {args.workload} seed {args.seed} passes {len(untraced)}"
          f"{' + ' + str(len(traced)) + ' traced' if traced else ''}")
    for label, key in (("wall_s", "wall_s"), ("raw wall_s", "raw_wall_s")):
        values = [p[key] for p in untraced]
        q1, q3 = quartiles(values)
        print(f"{label} median {statistics.median(values)!r} q1 {q1!r} q3 {q3!r}"
              f" samples {len(values)} (s)")
    raw_setup = [s for p in untraced for s in p["raw_setup_s"]]
    print(f"raw setup_s median {statistics.median(raw_setup)!r} samples {len(raw_setup)} (s)")
    print(f"host speed scale median {statistics.median(scales)!r}"
          f" min {min(scales)!r} max {max(scales)!r}")
    for i, cmd in enumerate(commands):
        times = [p["results"][i].get("dispatch_s", 0.0) for p in untraced]
        print(f"  {cmd['id']} raw dispatch_s " + " ".join(f"{t:.3f}" for t in times))
    print(f"fail_share {failed}/{attempted} = {failed / attempted!r} (commands)")
    print(f"oracle spot-check {'passed' if not spot_errors else 'FAILED'}")

    if args.trace:
        per_pass = [layers.pass_metrics([r["trace"] for r in p["results"] if r.get("trace")])
                    for p in traced]
        # counts repeat exactly across passes; median_low keeps them integers
        values = {name: (statistics.median_low if isinstance(v, int) else statistics.median)(
                      [m[name] for m in per_pass]) for name, v in per_pass[0].items()}
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        with open(work / "spans.json", "w", encoding="ascii") as fh:
            json.dump({r["id"]: r.get("trace") for r in traced[-1]["results"]}, fh)
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s for p in untraced for s in p["setup_s"]),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in untraced) / 1024,
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not spot_errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_golden(plan) -> int:
    """Write each command's stdout as its golden output, after checking that
    two seeds give identical bytes and that the oracle spot-checks pass."""
    sys.path.insert(0, str(SRC))
    from fsdim.cli import gen_pool

    from inputs import gen_pool as bench_pool

    p = plan["inputs"]["pool"]
    ours = bench_pool(p["seed"], p["count"], p["max_states"], p["base"], p["max_burst"])
    theirs = gen_pool(p["seed"], p["count"], p["max_states"], p["base"], p["max_burst"])
    if ours != [(n, t.start, t.transitions) for n, t in theirs]:
        raise SystemExit("bench/inputs.py no longer reproduces fsdim.cli.gen_pool")
    GOLDEN.mkdir(exist_ok=True)
    seed = plan["default_seed"]
    for name, workload in plan["workloads"].items():
        outputs = {}
        for s in (seed, seed + 1):
            work = WORK / name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            inputs = write_inputs(plan["inputs"], str(work), s)
            deadline = time.monotonic() + 3600
            res = [run_command(cmd, work, False, deadline, golden=False) for cmd in workload["commands"]]
            for cmd, r in zip(workload["commands"], res):
                if r["problems"]:
                    raise SystemExit(f"{cmd['id']}: {r['problems']}")
                if outputs.setdefault(cmd["id"], r["stdout"]) != r["stdout"]:
                    raise SystemExit(f"{cmd['id']}: output depends on the seed")
            errors = spot_checks(workload["commands"], {"results": res}, inputs, s)
            if errors:
                raise SystemExit("\n".join(errors))
        for cmd_id, out in outputs.items():
            (GOLDEN / f"{cmd_id}.out").write_bytes(out)
            print(f"recorded {cmd_id}: {len(out)} bytes")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write bench/golden from the current source")
    args = ap.parse_args()
    if not (SRC / "fsdim" / "cli.py").is_file():
        print(f"error: no fsdim source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    plan = json.loads((BENCH / "workloads.json").read_text())
    if args.record_golden:
        return record_golden(plan)
    if args.workload not in plan["workloads"]:
        ap.error(f"--workload must be one of {sorted(plan['workloads'])}")
    if args.seed is None:
        args.seed = plan["default_seed"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return measure(args, plan, spec)


if __name__ == "__main__":
    sys.exit(main())
