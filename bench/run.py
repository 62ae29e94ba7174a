"""ncfem benchmark: run ``ncfem`` CLI jobs in-process and check their reports.

Run from the repository root:

    python3 bench/run.py --workload rates-cr-lshape --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop: one job at a time, each job
calling ``ncfem.cli.main([...])`` for its commands, until ``--seconds`` have
passed (the job under way finishes).  Every job's JSON reports (and CSV
tables) are checked against ``expected.json`` and against the first job of
the run; a job that raises, exits non-zero or fails a check counts as
failed.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``setup_s`` (median over fresh processes importing
  ``ncfem.cli``, ``ncfem.experiments`` and ``ncfem.estimator``),
  ``job_ref_s`` (median over successful jobs) and ``peak_rss_mb``.  Both
  times are wall times at a fixed reference speed, see :class:`Calibration`;
  the raw medians and ``fail_frac`` are printed above the JSON line.  A run
  whose jobs all fail reports ``job_ref_s`` as null (missing).
* ``--trace 1``: jobs alternate untraced and traced; per-layer self times
  and counts are medians over the traced jobs, ``job.wall_s`` is the raw
  median of the untraced ones and ``trace.overhead_frac`` compares the two
  kinds.  Spans are written as JSONL under ``.bench_out/``.

BLAS runs on one thread: the thread variables are set here, before numpy
is imported (``ncfem --threads`` cannot do that in-process).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# fresh-process imports per set-up measurement (after one untimed warm-up
# that fills the bytecode cache); one import takes about 0.5-0.8 s
SETUP_PROCS = 5
SETUP_CODE = "import ncfem.cli, ncfem.experiments, ncfem.estimator"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_ncfem():
    if not os.path.isfile(os.path.join(SRC, "ncfem", "__init__.py")):
        _die(f"no ncfem sources under {SRC}")
    sys.path.insert(0, SRC)
    import ncfem.cli
    import ncfem.estimator  # noqa: F401
    import ncfem.experiments  # noqa: F401

    if not os.path.abspath(ncfem.cli.__file__).startswith(SRC + os.sep):
        _die(f"imported ncfem from {ncfem.cli.__file__}, not from {SRC}")
    return ncfem.cli


def machine_info():
    """Cores, CPU, library versions and BLAS thread cap of this run."""
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(cal, n=SETUP_PROCS):
    """Median wall seconds, raw and at reference speed, of a fresh interpreter
    importing the CLI stack."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    raw, ref = [], []
    before = None
    for i in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            _die(f"set-up import failed:\n{proc.stderr}")
        after = cal.block()
        if i:  # the first import fills the bytecode cache and is not timed
            raw.append(elapsed)
            ref.append(cal.ref_seconds(elapsed, before, after))
        before = after
    return statistics.median(raw), statistics.median(ref)


class Calibration:
    """Machine speed, sampled between commands with a fixed kernel outside ncfem.

    On a shared 2-core cloud VM (Xeon, 2.1 GHz) the CPU's speed drifts by up
    to a third over tens of seconds, so the raw times of one run say as much
    about the neighbours as about the program.  ``job_ref_s`` divides each
    command's wall time by the median time of this kernel in the blocks
    taken just before and just after the command, multiplies by ``REF_S``
    and sums over the job's commands: job seconds at a fixed reference
    speed.  ``setup_s`` treats each import process alike.  The kernel mixes
    what the jobs spend their time on: an einsum contraction of the
    error-norm shape, a dense generalized eigensolve and interpreted Python.
    It does not call ncfem, so a change to ncfem moves both metrics as it
    moves the raw wall times.
    """

    REF_S = 0.015  # seconds per kernel call at the reference speed
    PER_BLOCK = 10

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((128, 10, 81, 2))
        self._b = rng.standard_normal((128, 81, 10))
        m = rng.standard_normal((180, 180))
        self._s = m @ m.T
        self._k = self._s + 180.0 * np.eye(180)

    def _kernel(self):
        import numpy as np
        import scipy.linalg as sla

        t0 = time.perf_counter()
        np.einsum("fkmd,fmj->fjkd", self._a, self._b)
        sla.eigh(self._s, self._k)
        acc = 0
        for i in range(40_000):
            acc += i * i
        return time.perf_counter() - t0

    def block(self):
        return [self._kernel() for _ in range(self.PER_BLOCK)]

    def ref_seconds(self, wall, before, after):
        return self.REF_S * wall / statistics.median(before + after)


@dataclass
class JobResult:
    job: int
    traced: bool
    wall: float
    cpu: float
    ref: float | None = None
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems


def _csv_body(text):
    lines = text.splitlines(keepends=True)
    if lines and lines[0].startswith("# generated"):
        lines = lines[1:]
    return "".join(lines)


def _run_command(cli, argv):
    """Exit code of one in-process ``ncfem`` call, or the message it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:  # a crashing command is a failed job, not a crash
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def run_job(cli, job, cmds, out_dir, expected, traced=False, cal=None):
    """Run one job's commands, then check what they wrote.

    With ``cal``, calibration blocks are taken between the commands; the
    wall and CPU times exclude them.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    problems, ran = [], []
    wall = cpu = ref = 0.0
    before = cal.block() if cal else None
    for label, argv in cmds:
        extra = ["--json", os.path.join(out_dir, label + ".json")]
        if argv[0] == "rates":
            extra += ["--csv", os.path.join(out_dir, label + ".csv")]
        c0, t0 = time.process_time(), time.perf_counter()
        rc, raised = _run_command(cli, argv + extra)
        elapsed = time.perf_counter() - t0
        wall, cpu = wall + elapsed, cpu + time.process_time() - c0
        if cal:
            after = cal.block()
            ref += cal.ref_seconds(elapsed, before, after)
            before = after
        if raised is not None:
            problems.append(f"{label}: {raised}")
        elif rc != 0:
            problems.append(f"{label}: exit code {rc}")
        else:
            ran.append(label)
    result = JobResult(job, traced, wall, cpu, ref if cal else None, problems)
    for label in ran:
        for ext in (".json", ".csv"):
            path = os.path.join(out_dir, label + ext)
            if not os.path.exists(path):
                if ext == ".json":
                    problems.append(f"{label}: no JSON report written")
                continue
            with open(path) as fh:
                text = fh.read()
            result.outputs[label + ext] = _csv_body(text) if ext == ".csv" else text
        if label + ".json" in result.outputs:
            report = json.loads(result.outputs[label + ".json"])
            problems += [f"{label}: {p}" for p in
                         checks.check_report(report, expected.get(label))]
    return result


def check_determinism(results):
    """Flag jobs whose reports differ byte for byte from the first good job's."""
    ref = next((r for r in results if r.ok), None)
    for r in results:
        if ref is None or r is ref or not r.ok:
            continue
        for name, text in ref.outputs.items():
            if r.outputs.get(name) != text:
                r.problems.append(f"{name}: differs from job {ref.job}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _die("--seconds must be positive")

    cli = _import_ncfem()
    expected = checks.load_expected()
    cmds = workloads.commands(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    cal = None if args.trace else Calibration()
    setup_raw, setup_s = (None, None) if args.trace else measure_setup(cal)
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    results = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            if traced:
                tracer.job = len(results)
                tracer.install()
            try:
                results.append(run_job(cli, len(results), cmds, out_dir, expected,
                                       traced, cal))
            finally:
                if traced:
                    tracer.uninstall()
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(results) >= 2):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    check_determinism(results)

    attempted = len(results)
    failed = sum(not r.ok for r in results)
    untraced = [r for r in results if not r.traced]
    good = [r.wall for r in untraced if r.ok]
    job_s = statistics.median(good) if good else None
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  commands/job {len(cmds)}")
    print("  machine " + json.dumps(machine_info()))
    for r in results:
        state = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
        speed = "" if r.ref is None else f" {r.ref:.3f} s ref"
        print(f"  job {r.job} {'traced' if r.traced else 'untraced'} "
              f"{r.wall:.3f} s wall {r.cpu:.3f} s cpu{speed}  {state}")

    if args.trace:
        spans = [s for s in tracer.spans if s is not None]
        per_job = [tracing.job_layer_metrics([s for s in spans if s.job == r.job])
                   for r in results if r.traced]
        metrics = tracing.median_metrics(per_job)
        traced_ok = [r.wall for r in results if r.traced and r.ok]
        metrics["job.cpu_s"] = statistics.median(r.cpu for r in untraced)
        metrics["job.wall_s"] = job_s
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_ok) / job_s - 1.0 if traced_ok and job_s else None)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(OUT, exist_ok=True)
        tracer.write_jsonl(spans_path, origin=start)
        print(f"  {len(spans)} spans written to {spans_path}")
        out = {k: _metric(v, tracing.unit(k)) for k, v in sorted(metrics.items())}
    else:
        ref = [r.ref for r in results if r.ok]
        out = {
            "setup_s": _metric(setup_s, "s"),
            "job_ref_s": _metric(statistics.median(ref) if ref else None, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, m in out.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value} {m['unit']}")
    if not args.trace:
        raw = "missing" if job_s is None else f"{job_s:.6g}"
        print(f"  {'setup_s (raw wall, not speed-corrected)':42s} {setup_raw:.6g} s")
        print(f"  {'job_s (raw wall, not speed-corrected)':42s} {raw} s")
        print(f"  {'fail_frac':42s} {failed / attempted:.6g} 1 ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
