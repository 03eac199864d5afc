"""Seeded job lists for the three benchmark workloads.

A job is one ``risant`` subcommand plus the ``--dotted.key`` overrides the
benchmark generated for it.  ``make_jobs`` is a pure function of
(workload, seed): it draws from its own ``random.Random`` and touches no
global state, so equal arguments always give an equal list, and
``jobs_hash`` of that list proves two runs ran identical inputs.

Each job also carries the row count every CSV artifact must have, derived
from the generated inputs (not from the program's output), for the output
check in ``check.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("hemisphere", "steer", "chain")
DEFAULT_SEED = 0

# Scenario defaults the expected row counts depend on; the jobs never
# override them.
GRID_POINTS_0P25 = 721                      # 0.25 deg over [-90, 90]
FEED_SCAN_POINTS = 13 * 1 * 10              # x: -120..120/20, y: 0, z: 80..260/20
FEED_REFINE_OFFSETS = 7
EVM_SWEEP_DISTANCES = 11
ACLR_SWEEP_ROWS = 2 * 5                     # centers x aod axes
SWEEP_POINTS_PER_ROUND = 81 + 46 + 36 + 21  # c_p, l_g, l_v, l_diode grids
GROUP_SIZE = 2


def _job(job_id, cmd, overrides, rows, n_xy=(32, 32)):
    args = [cmd]
    for key, value in overrides:
        args += [f"--{key}", value]
    return {"id": job_id, "cmd": cmd, "args": args, "rows": rows,
            "n_xy": list(n_xy)}


def _num(value: float) -> str:
    return f"{value:.2f}"


def _list(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def _hemisphere(rng: random.Random) -> list[dict]:
    # three 32x32 jobs and one 48x48 job: kernel cost scales with the
    # element count, so a kernel change shows on both sizes
    jobs = []
    for i, n in enumerate((32, 32, 48, 32)):
        overrides = [("pattern.target.az_deg", _num(rng.uniform(-60.0, 60.0))),
                     ("pattern.target.el_deg", _num(rng.uniform(-30.0, 30.0)))]
        if n != 32:
            overrides += [("array.n_x", str(n)), ("array.n_y", str(n))]
        jobs.append(_job(f"hemisphere-{i}", "pattern", overrides,
                         {"pattern_cut_az.csv": GRID_POINTS_0P25,
                          "pattern_cut_el.csv": GRID_POINTS_0P25}, (n, n)))
    return jobs


def _widebeam_rows(lo: float, hi: float) -> int:
    # the CLI cuts [lo - 10, hi + 10] at 0.25 deg, endpoints included
    return int(math.floor((hi - lo + 20.0) / 0.25 + 1e-9)) + 1


def _steer(rng: random.Random) -> list[dict]:
    jobs = []
    for _ in range(3):
        az = [rng.uniform(-60.0, 60.0) for _ in range(4)]
        el = [rng.uniform(-30.0, 30.0) for _ in range(2)]
        jobs.append(_job(f"steer-{len(jobs)}", "steer",
                         [("pattern.scan_az_deg", _list(az)),
                          ("pattern.scan_el_deg", _list(el))],
                         {"steer.csv": len(az) + len(el)}))
    for _ in range(2):
        position = [rng.uniform(-120.0, 120.0), 0.0, rng.uniform(80.0, 260.0)]
        jobs.append(_job(f"steer-{len(jobs)}", "feed-opt",
                         [("feed.position_mm", _list(position))],
                         {"feed_scan.csv": FEED_SCAN_POINTS,
                          "feed_refine.csv": FEED_REFINE_OFFSETS}))
    for _ in range(3):
        width = rng.uniform(10.0, 60.0)
        lo = round(rng.uniform(-60.0, 60.0 - width), 2)
        hi = round(lo + width, 2)
        jobs.append(_job(f"steer-{len(jobs)}", "widebeam",
                         [("pattern.widebeam.sector_az_deg", _list([lo, hi]))],
                         {"widebeam_cut.csv": _widebeam_rows(lo, hi),
                          "widebeam_states.csv": 32 * 32 // GROUP_SIZE}))
    return jobs


def _chain(rng: random.Random) -> list[dict]:
    def seed() -> str:
        return str(rng.randrange(2**31))

    start = [("element.start.c_p_ff", _num(rng.uniform(30.0, 70.0))),
             ("element.start.l_g_nh", _num(rng.uniform(0.5, 1.4))),
             ("element.start.l_v_nh", _num(rng.uniform(0.3, 1.0)))]
    distances = sorted(rng.uniform(1.0, 20.0) for _ in range(EVM_SWEEP_DISTANCES))
    specs = [
        ("train", [("rng_seed", seed()), ("training.n_trials", "200")],
         {"train.csv": 200}),
        ("aclr-sweep", [("rng_seed", seed())], {"aclr_sweep.csv": ACLR_SWEEP_ROWS}),
        ("link", [("rng_seed", seed())], {}),
        # element_trace.csv has rounds x SWEEP_POINTS_PER_ROUND rows; the
        # round count is an output, so check.py resolves it
        ("element-opt", start, {}),
        ("evm-sweep", [("link.sweep_distances_m", _list(distances))],
         {"evm_sweep.csv": EVM_SWEEP_DISTANCES}),
        ("dual-stream", [("link.dual.d_m", _num(rng.uniform(1.0, 10.0)))],
         {"dual_stream.csv": 2}),
        # the prototype frame (the published peak rate) and a seeded one;
        # with nine jobs the median job is a cheap one whose cost does not
        # depend on the seed (element-opt's round count does)
        ("rate", [], {}),
        ("rate", [("frame.cc_count", str(rng.randint(1, 4))),
                  ("frame.layers", str(rng.randint(1, 2)))], {}),
        ("geometry", [], {"geometry.csv": 32 * 32}),
    ]
    return [_job(f"chain-{i}", cmd, overrides, rows)
            for i, (cmd, overrides, rows) in enumerate(specs)]


_BUILDERS = {"hemisphere": _hemisphere, "steer": _steer, "chain": _chain}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The fixed job list of one workload pass; pure in (workload, seed)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def jobs_hash(jobs: list[dict]) -> str:
    canonical = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
