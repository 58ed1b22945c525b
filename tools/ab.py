#!/usr/bin/env python3
"""Interleaved A/B of one perfbench workload: this checkout against a revision.

    tools/ab.py --against REV --workload table1|native_spmd|dctd_mix \
        --pairs N --seconds S [--trace 0|1] [--seed-base K]

Run from anywhere inside a checkout. REV is checked out from the local
repository with `git worktree add` under .bench_build/ab/<commit>/ (kept and
reused by later calls; `git worktree remove` deletes it). The other side is
this checkout's working tree, uncommitted changes included. Each tree builds
and runs its own perfbench/run.py.

Pair i (1-based) runs both sides with seed K+i, REV first in odd pairs and
the working tree first in even ones. The tool stops when a run fails or
when the host fingerprint in a run's result file (.bench_build/results/)
differs from the first run's. For every metric both sides report it prints
REV's median and quartiles, the working tree's median, the pairs the working
tree won (by the metric's `better` in BENCHMARK.json), the median of the
per-pair ratios (working tree over REV) and every run in pair order. Each
run's standard output is kept in .bench_build/ab/runs/.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB = ROOT / ".bench_build" / "ab"
# Fields of the result file's "host" object that describe the run, not the
# host.
RUN_FIELDS = {"source", "workload", "seed", "seconds", "trace"}


def fail(msg):
    print(f"ab.py: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args, cwd=ROOT):
    r = subprocess.run(["git", "-C", str(cwd), *args], capture_output=True,
                       text=True)
    if r.returncode:
        fail(f"git {' '.join(args)}: {r.stderr.strip()}")
    return r.stdout.strip()


def checkout(rev):
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = AB / sha[:12]
    if not (tree / ".git").exists():
        AB.mkdir(parents=True, exist_ok=True)
        git("worktree", "add", "--detach", str(tree), sha)
    elif git("rev-parse", "HEAD", cwd=tree) != sha:
        fail(f"{tree} is not at {sha}; remove it with git worktree remove")
    return sha, tree


def run(tree, label, args, seed, pair):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    (AB / "runs").mkdir(parents=True, exist_ok=True)
    (AB / "runs" / f"{args.workload}-pair{pair}-{label}.txt").write_text(
        proc.stdout)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"pair {pair}, {label}: run.py exited with {proc.returncode} "
             "and no result")
    if proc.returncode or not result.get("correct"):
        fail(f"pair {pair}, {label}: run failed ({result.get('failed')} of "
             f"{result.get('attempted')} operations)")
    detail = json.loads(
        (tree / ".bench_build" / "results" /
         f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
    host = {k: v for k, v in detail["host"].items() if k not in RUN_FIELDS}
    return {k: m["value"] for k, m in result["metrics"].items()}, host


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4, method="exclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(
        description="Interleaved A/B of a perfbench workload.")
    ap.add_argument("--against", required=True, help="revision to compare")
    ap.add_argument("--workload", required=True,
                    choices=["table1", "native_spmd", "dctd_mix"])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    sha, base_tree = checkout(args.against)
    print(f"ab: {args.workload}, {args.pairs} pairs, --seconds "
          f"{args.seconds:g} --trace {args.trace}; base {sha[:12]} "
          f"({base_tree.relative_to(ROOT)}), change = working tree",
          flush=True)

    sides = {"base": base_tree, "change": ROOT}
    runs = {"base": [], "change": []}
    host0 = None
    for pair in range(1, args.pairs + 1):
        seed = args.seed_base + pair
        order = ["base", "change"] if pair % 2 else ["change", "base"]
        for label in order:
            metrics, host = run(sides[label], label, args, seed, pair)
            if host0 is None:
                host0 = host
            elif host != host0:
                fail(f"pair {pair}, {label}: host changed from {host0} to "
                     f"{host}")
            runs[label].append(metrics)
        shown = " ".join(
            f"{k} {runs['base'][-1][k]:.6g} -> {runs['change'][-1][k]:.6g}"
            for k in end_to_end if k in runs["base"][-1])
        print(f"pair {pair} seed {seed} ({order[0]} first): {shown}",
              flush=True)

    print(f"host: {json.dumps(host0)}")
    names = [k for k in runs["base"][0] if k in runs["change"][0]]
    print(f"{'metric':<40} {'base median [q1, q3]':>32} {'change':>12} "
          f"{'won':>7} {'ratio':>7}")
    for k in names:
        b = [r[k] for r in runs["base"]]
        c = [r[k] for r in runs["change"]]
        q1, q3 = quartiles(b)
        lower = better.get(k, "lower") == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        ratios = [y / x for x, y in zip(b, c) if x]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        print(f"{k:<40} {statistics.median(b):>12.6g} [{q1:.6g}, {q3:.6g}]"
              f" {statistics.median(c):>12.6g} {won:>3}/{len(b):<3} "
              f"{ratio:>7}")
    print("every run, in pair order:")
    for k in names:
        for label in ("base", "change"):
            vals = " ".join(f"{r[k]:.6g}" for r in runs[label])
            print(f"  {k} {label}: {vals}")


if __name__ == "__main__":
    main()
