"""Run the benchmark on the parent and HEAD in interleaved pairs; write BENCH_<pr>.json.

Run from the repository root, after committing the change:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr N

The workloads and the run length are those BENCHMARK.json declares.  Each
side is exported with ``git archive`` into a fresh temporary directory, so
both run the benchmark code and sources they were committed with.  There are
10 pairs, the number a gain claim is judged on.  Pair i uses seed 701 + i on
both sides, runs one ``bench/run.py`` process at a time, and alternates which
side runs first.  The output has the shape of ``bench/baseline.json``: per
side and workload, the median and quartiles of each end-to-end metric over
the pairs; per metric, the change's wins, losses and ties against the parent
in the same pair, and the two tests a gain claim and a no-regression claim
must pass.  Only the standard library is used.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
FIRST_SEED = 701
# raw (not speed-corrected) lines bench/run.py prints above its JSON line
RAW_LINES = {
    "setup_s (raw wall": "setup_s_raw",
    "job_s (raw wall": "job_s_raw",
}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev, into):
    """Extract the tree of `rev` into the directory `into`; return its full hash."""
    sha = _git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def run_bench(tree, workload, seed, seconds):
    """One ``bench/run.py`` process: its metrics, raw times, failures and machine."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} failed:\n{proc.stderr}")
    last = json.loads(lines[-1])
    run = {name: m["value"] for name, m in last["metrics"].items()}
    machine = None
    for line in lines:
        text = line.strip()
        if text.startswith("machine "):
            machine = json.loads(text[len("machine "):])
        for prefix, name in RAW_LINES.items():
            if text.startswith(prefix):
                value = text.split(")", 1)[1].split()[0]
                run[name] = None if value == "missing" else float(value)
    run.update(seed=seed, correct=last["correct"], attempted=last["attempted"],
               failed=last["failed"])
    return run, machine


def summary(values):
    """Median, quartiles and spread (q3 - q1) / median, as in bench/baseline.json."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "spread": None, "runs": 0}
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (med, med, med))
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "spread": round((q3 - q1) / med, 3) if med else None, "runs": len(values)}


def compare(parent_runs, change_runs, name, bound):
    """Pairwise verdict for one lower-is-better metric."""
    wins = losses = ties = 0
    for p, c in zip(parent_runs, change_runs):
        if p[name] is None or c[name] is None:
            continue
        wins += c[name] < p[name]
        losses += c[name] > p[name]
        ties += c[name] == p[name]
    ps, cs = summary(r[name] for r in parent_runs), summary(r[name] for r in change_runs)
    out = {"wins": wins, "losses": losses, "ties": ties}
    if ps["median"] and cs["median"] is not None:
        out["change_over_parent"] = round(cs["median"] / ps["median"], 4)
        # a gain: wins in 9 of the 10 pairs and a median drop wider than
        # the parent's interquartile range
        out["gain_holds"] = (wins >= 0.9 * PAIRS
                             and ps["median"] - cs["median"] > ps["q3"] - ps["q1"])
        if bound is not None:
            out["bound"] = bound
            out["within_bound"] = cs["median"] <= ps["median"] * (1.0 + bound)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    result = {"about": (
        "Interleaved parent/change pairs of python3 bench/run.py --trace 0, written by "
        "tools/bench_pairs.py. Pair i runs seed first_seed + i on both sides, one process "
        "at a time; the side that runs first alternates, starting with the parent. "
        "end_to_end: median and quartiles per side (spread = (q3 - q1) / median); "
        "pairs: per metric, pairs the change won, lost and tied (lower is better), "
        "gain_holds (wins in at least 9 of the 10 pairs and the median drop exceeds the parent's "
        "q3 - q1) and within_bound (change median <= parent median * (1 + bound)). "
        "*_raw are unscaled wall seconds."),
        "pr": args.pr, "run_seconds": seconds, "pairs": PAIRS,
        "first_seed": FIRST_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            trees[side] = os.path.join(tmp, side)
            result[side] = export(rev, trees[side])
        for workload in (w["name"] for w in declared["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    run, machine = run_bench(trees[side], workload, seed, seconds)
                    runs[side].append(run)
                    result.setdefault("machine", machine)
                    print(f"{workload} pair {i} seed {seed} {side}: job_ref_s "
                          f"{run.get('job_ref_s')} correct {run['correct']}", flush=True)
            metrics = [k for k in runs["parent"][0] if k.endswith(("_s", "_mb", "_raw"))]
            result["workloads"][workload] = {
                "seeds": [FIRST_SEED + i for i in range(PAIRS)],
                **{side: {
                    "end_to_end": {k: summary(r[k] for r in rs) for k in metrics},
                    "fail_frac": sum(r["failed"] for r in rs) / max(
                        sum(r["attempted"] for r in rs), 1),
                    "all_correct": all(r["correct"] for r in rs),
                } for side, rs in runs.items()},
                "pairs": {k: compare(runs["parent"], runs["change"], k, bounds.get(k))
                          for k in metrics},
                "runs": runs,
            }
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
        result["machine"]["memory_mb"] = kb // 1024
    except (OSError, StopIteration, KeyError, TypeError):
        pass
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
