#!/usr/bin/env python3
"""risant benchmark harness.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, both modes
  python3 perfbench/run.py --selftest        # the output check catches perturbed artifacts
  python3 perfbench/run.py --write-reference # regenerate reference.json (say why in CHANGES.md)

One run is a closed loop with one client in this process: it repeats the
workload's seeded job list (a "pass", see jobs.py) through
``risant.cli.main`` until another pass would end past ``--seconds``,
checks every job's
artifacts (check.py) and prints one JSON line as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
per-layer ones, from passes traced by tracing.py alternating with untraced
passes (their difference is the tracing overhead).  The line before it is
a JSON report: environment, job-list hash, sample counts, work counters
and the metrics that are not defined on every workload.
"""

import os
import sys

# One BLAS thread on every commit: the pattern kernels run 15-30 % faster
# with two threads on two cores, but the thread count is then another
# thing that shares the cores with the rest of the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# Set-up is timed with a warm bytecode cache, as a user's second run has it:
# this process writes the cache that the set-up probes then read.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 5
P90_MIN_JOBS = 100  # at least 10 samples beyond the 90th percentile

# Machine-speed calibration (see README.md).  On a shared machine a core
# switches between a fast and a slow state about 1.4x apart, and the slow
# share drifts over tens of seconds, so raw job times spread 10-30 % from
# run to run.  Two fixed kernels, neither of them program code, are timed
# before each set-up probe and before any job that starts CAL_EVERY_S or
# more after the last timing, and after every probe and pass.  One is
# interpreter, small numpy and BLAS work in cache.  The other streams a
# complex exp through 4 MB of preallocated arrays.  The program's lattice
# sum does both.  Neither allocates more than a 64 kB temporary, so the
# program's allocation history cannot change them.  Each end-to-end time
# is reported as seconds x (CAL_NOMINAL_S / kernel time) ** CAL_EXPONENT,
# where the kernel time is the geometric mean of the two kernels averaged
# over the timings just before and just after the measurement.  Jobs slow
# down less than the kernels in the slow state: recomputed from ten
# recorded runs each of hemisphere and steer, an exponent of 0.5 left the
# least spread (5-10 %, against 13-18 % for full division and 14-17 % raw).
CAL_NOMINAL_S = 0.005
CAL_EXPONENT = 0.5
CAL_EVERY_S = 1.0
_CAL_X = np.linspace(0.0, 1.0, 4096)
_CAL_M = np.random.default_rng(0).random((64, 64))
_CAL_Z = 1j * np.linspace(0.0, 1.0, 1 << 17)
_CAL_OUT = np.empty_like(_CAL_Z)


def _compute_kernel():
    total = 0
    for i in range(40_000):
        total += i * i
    for _ in range(40):
        np.exp(1j * _CAL_X).sum()
    for _ in range(20):
        _CAL_M @ _CAL_M


def _stream_kernel():
    for _ in range(3):
        np.exp(_CAL_Z, out=_CAL_OUT)


def _median_time(kernel) -> float:
    samples = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def calibrate() -> float:
    """Geometric mean of the two kernels' median times, seconds."""
    return math.sqrt(_median_time(_compute_kernel) * _median_time(_stream_kernel))


def sample(seconds, kernel_s):
    """(raw seconds, calibrated seconds) of one measurement."""
    return seconds, seconds * (CAL_NOMINAL_S / kernel_s) ** CAL_EXPONENT


def calibrated(samples) -> float:
    return statistics.median(c for _, c in samples)


def raw(samples) -> float:
    return statistics.median(r for r, _ in samples)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import risant from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "risant", "cli.py")):
        fail(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    import risant.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(risant.cli.__file__))) != SRC:
        fail(f"imported risant from {risant.cli.__file__}, not from {SRC}")
    return risant.cli


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def environment():
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


def measure_setup(first_job_args):
    """``SETUP_SAMPLES`` fresh interpreters, each timed from start until the
    first job is ready; returns the set-up samples and the import seconds
    of each probe."""
    setup_s, import_s = [], []
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
               json.dumps(first_job_args)]
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or not line:
                fail("set-up probe failed")
        setup_s.append(sample(ready - start, 0.5 * (before + calibrate())))
        import_s.append(json.loads(line)["import_s"])
    return setup_s, import_s


class Runner:
    """Runs and checks passes of one job list; keeps every measured job time."""

    def __init__(self, cli, check, tracer, jobs, run_dir, reference=None):
        self.cli, self.check, self.tracer = cli, check, tracer
        self.jobs, self.run_dir, self.reference = jobs, run_dir, reference
        self.attempted = self.failed = 0
        self.job_s = {}    # job id -> samples of its measured runs
        self.kernel_s = []  # every calibration timing
        self._calibrated_at = None
        self.digests = {}  # job id -> {artifact: sha256} of its first run

    def run_job(self, job, out_dir):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(job["args"] + ["--out", out_dir])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            return 1

    def verify(self, job, rc, out_dir):
        """Output check of one job; a failure is counted and reported."""
        self.attempted += 1
        try:
            names = self.check.check_job(job, rc, out_dir)
            if self.reference is not None:
                self.check.check_reference(job["id"], names, out_dir,
                                           self.reference[job["id"]])
            digests = {}
            for name in names:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
            if self.digests.setdefault(job["id"], digests) != digests:
                raise self.check.CheckError("artifacts differ from the job's first run")
            return names
        except (self.check.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"perfbench: job {job['id']} failed: {exc}", file=sys.stderr)
            return None

    def kernel(self, force=False):
        """Index of the latest calibration timing, renewed when ``force`` is
        set or CAL_EVERY_S has passed since the last one."""
        if (force or self._calibrated_at is None
                or perf_counter() - self._calibrated_at >= CAL_EVERY_S):
            self.kernel_s.append(calibrate())
            self._calibrated_at = perf_counter()
        return len(self.kernel_s) - 1

    def run_pass(self, label, jobs=None, measured=True):
        """Run the job list (or ``jobs``) once, then check it; return the
        pass sample, the sum of its job samples."""
        pass_dir = os.path.join(self.run_dir, str(label))
        outcomes = []
        for job in self.jobs if jobs is None else jobs:
            out_dir = os.path.join(pass_dir, job["id"])
            before = self.kernel()
            self.tracer.job = (label, job["id"])
            start = perf_counter()
            rc = self.run_job(job, out_dir)
            seconds = perf_counter() - start
            self.tracer.job = None
            outcomes.append((job, rc, out_dir, seconds, before))
        self.kernel(force=True)
        total_raw = total_calibrated = 0.0
        for job, rc, out_dir, seconds, before in outcomes:
            kernel_s = 0.5 * (self.kernel_s[before] + self.kernel_s[before + 1])
            raw_s, calibrated_s = sample(seconds, kernel_s)
            if measured:
                self.job_s.setdefault(job["id"], []).append((raw_s, calibrated_s))
            total_raw += raw_s
            total_calibrated += calibrated_s
            self.verify(job, rc, out_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return total_raw, total_calibrated


def repeated(per_pass, what, problems):
    """A work count that must repeat exactly on every pass of one job list."""
    if len(set(per_pass)) > 1:
        problems.append(f"{what} differs between passes: {per_pass}")
    return per_pass[0]


def _layer_value(name, agg):
    calls, counts = agg["calls"], agg["counts"]
    if name == "pattern.far_field.ns_per_dir_elem":
        dir_elem = counts["pattern.far_field.dir_elem"]
        return 1e9 * agg["self_s"]["pattern.far_field"] / dir_elem if dir_elem else 0.0
    if name == "synthesis.beam_training.success_ratio":
        n = calls["synthesis.beam_training"]
        return counts["synthesis.beam_training.successes"] / n if n else 0.0
    if name == "element.optimize_structure.evaluations":
        return calls["element.design_objective"]
    base, stat = name.rsplit(".", 1)
    if stat == "calls":
        return calls[base]
    if stat in ("s", "self_s"):
        return agg[stat][base]
    return counts[name]


def layer_metrics(spec, by_pass, labels, walls, import_s, problems):
    """Per-layer metrics: medians over the traced passes; counts must repeat."""
    per_pass = [by_pass[label] for label in labels[True]]
    special = {
        "risant.import_s": statistics.median(import_s),
        # raw, like the span times it contains
        "trace.wall_s": raw(walls[True]),
        # calibrated, so machine drift between the alternating passes cancels
        "trace.overhead_s": calibrated(walls[True]) - calibrated(walls[False]),
    }
    metrics = {}
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name in special:
            value = special[name]
        else:
            values = [_layer_value(name, agg) for agg in per_pass]
            value = (repeated(values, name, problems) if unit == "count"
                     else statistics.median(values))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(args):
    cli = import_program()
    import check
    import jobs as jobgen
    from tracing import Tracer

    spec = load_spec()
    jobs = jobgen.make_jobs(args.workload, args.seed)
    jobs_hash = jobgen.jobs_hash(jobs)
    reference = None
    if args.seed == jobgen.DEFAULT_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            stored = json.load(fh)[args.workload]
        if stored["jobs_hash"] != jobs_hash:
            fail("reference.json was made from another job list; regenerate it")
        reference = stored["jobs"]

    setup_s, import_s = measure_setup(jobs[0]["args"])
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tracer = Tracer()
    runner = Runner(cli, check, tracer, jobs, run_dir, reference)
    # Untraced passes wrap only far_field, to count directions (one extra
    # call per far_field call, each of which takes milliseconds).
    counting = ["pattern.far_field"]
    walls = {False: [], True: []}
    labels = {False: [], True: []}
    try:
        # warm-up job: lazy imports and first-touch allocations go unmeasured
        with tracer.install(counting):
            runner.run_pass("warm-up", jobs[:1], measured=False)
        # Passes run until another one would end past --seconds, with at
        # least one untraced pass (and one traced pass when tracing).
        start = perf_counter()
        durations = []
        index = 0
        while True:
            traced = bool(args.trace) and index % 2 == 1
            pass_start = perf_counter()
            with tracer.install(None if traced else counting):
                walls[traced].append(runner.run_pass(index, measured=not traced))
            labels[traced].append(index)
            durations.append(perf_counter() - pass_start)
            index += 1
            elapsed = perf_counter() - start
            if (elapsed + statistics.median(durations) > args.seconds
                    and walls[False] and (walls[True] or not args.trace)):
                break
        if args.trace:
            tracer.write(os.path.join(WORK_DIR, f"spans-{args.workload}.csv.gz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = []
    by_pass = tracer.aggregate()
    directions = repeated(
        [by_pass[label]["counts"]["pattern.far_field.directions"] for label in labels[False]],
        "pattern.far_field.directions", problems)
    wall_s = calibrated(walls[False])
    job_samples = [sample for runs in runner.job_s.values() for sample in runs]
    job_s = [c for _, c in job_samples]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_hash": jobs_hash, "jobs_per_pass": len(jobs),
        "reference_checked": reference is not None,
        "environment": environment(),
        "samples": {"setup": len(setup_s), "passes": len(walls[False]),
                    "traced_passes": len(walls[True]), "jobs": len(job_s)},
        "calibration": {"nominal_s": CAL_NOMINAL_S,
                        "median_s": statistics.median(runner.kernel_s),
                        "timings": len(runner.kernel_s)},
        "raw_s": {"setup_s": raw(setup_s), "wall_s": raw(walls[False]),
                  "job_s.p50": raw(job_samples)},
        "job_s_median_by_job": {job_id: calibrated(runs)
                                for job_id, runs in runner.job_s.items()},
        "pass_wall_s": [t for t, _ in walls[False]],
        "traced_pass_wall_s": [t for t, _ in walls[True]],
        "fail_ratio": runner.failed / runner.attempted,
        "directions_per_pass": directions,
        "directions_per_s": directions / wall_s,
    }
    if len(job_s) >= P90_MIN_JOBS:
        report["job_s.p90"] = statistics.quantiles(job_s, n=10, method="inclusive")[-1]
    if args.trace:
        metrics = layer_metrics(spec, by_pass, labels, walls, import_s, problems)
    else:
        values = {
            "setup_s": calibrated(setup_s),
            "wall_s": wall_s,
            "job_s.p50": statistics.median(job_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    report["problems"] = problems
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": runner.failed == 0 and not problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))


def write_reference():
    """Fingerprint one default-seed pass of every workload into reference.json."""
    cli = import_program()
    import check
    import jobs as jobgen
    from tracing import Tracer

    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="reference-", dir=WORK_DIR)
    stored = {}
    try:
        for workload in jobgen.WORKLOADS:
            jobs = jobgen.make_jobs(workload, jobgen.DEFAULT_SEED)
            runner = Runner(cli, check, Tracer(), jobs, run_dir)
            fingerprints = {}
            for job in jobs:
                out_dir = os.path.join(run_dir, job["id"])
                names = runner.verify(job, runner.run_job(job, out_dir), out_dir)
                if names is None:
                    fail(f"job {job['id']} failed; no reference written")
                fingerprints[job["id"]] = {
                    name: check.fingerprint(os.path.join(out_dir, name)) for name in names}
            stored[workload] = {"jobs_hash": jobgen.jobs_hash(jobs), "jobs": fingerprints}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"rel_tol": check.REL_TOL, **stored}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    from jobs import WORKLOADS
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines[:-2]))
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"   FAILED (exit {done.returncode})")
            else:
                print(f"   correct, {result['attempted']} jobs, {result['failed']} failed")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="job-list seed (default: the seed of reference.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    from jobs import DEFAULT_SEED, WORKLOADS
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.all:
        return run_all(args)
    if args.selftest:
        import_program()
        import selftest
        return selftest.main(Runner)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
