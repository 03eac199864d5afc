"""Self-test of the output check: python3 perfbench/run.py --selftest

Runs a few default-seed jobs, checks that their artifacts pass both the
invariants and the stored reference, then perturbs one artifact at a time
in a copy and checks that each perturbation is caught.  Exits 0 only when
the clean run passes and every perturbation fails the check.
"""

import csv
import json
import os
import shutil
import sys
import tempfile

import check
import jobs as jobgen
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(os.path.dirname(HERE), ".perfbench")


def _edit_json(path, key, change):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data[key] = change(data[key])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _edit_csv(path, change):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = change(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale_cell(row, col, factor):
    def change(rows):
        rows[row][col] = repr(float(rows[row][col]) * factor)
        return rows
    return change


def _set_cell(row, col, text):
    def change(rows):
        rows[row][col] = text
        return rows
    return change


def _swap_cells(row_a, row_b, col):
    def change(rows):
        rows[row_a][col], rows[row_b][col] = rows[row_b][col], rows[row_a][col]
        return rows
    return change


# (what the perturbation models, job id, artifact, edit of the artifact path)
PERTURBATIONS = [
    ("peak gain off by 1e-7 relative (reference)", "hemisphere-0", "pattern.json",
     lambda p: _edit_json(p, "peak_gain_dbi", lambda v: v * (1 + 1e-7))),
    ("one cut sample off by 1e-5 relative (reference)", "hemisphere-0",
     "pattern_cut_az.csv", lambda p: _edit_csv(p, _scale_cell(361, 1, 1 + 1e-5))),
    ("peak gain above the aperture bound", "hemisphere-0", "pattern.json",
     lambda p: _edit_json(p, "peak_gain_dbi", lambda v: 40.0)),
    ("steering row lost", "steer-0", "steer.csv",
     lambda p: _edit_csv(p, lambda rows: rows[:-1])),
    ("spillover above one", "steer-3", "feed_opt.json",
     lambda p: _edit_json(p, "eta_spillover", lambda v: 1.05)),
    ("NaN in a training row", "chain-0", "train.csv",
     lambda p: _edit_csv(p, _set_cell(5, 1, "nan"))),
    ("two element positions swapped (reference)", "chain-8", "geometry.csv",
     lambda p: _edit_csv(p, _swap_cells(1, 2, 2))),
]


def _verify(job, rc, out_dir, reference):
    names = check.check_job(job, rc, out_dir)
    check.check_reference(job["id"], names, out_dir, reference[job["id"]])


def main(runner_class):
    import risant.cli as cli

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    selected = {job_id for _, job_id, _, _ in PERTURBATIONS}
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR)
    caught = 0
    try:
        outputs = {}
        for workload in jobgen.WORKLOADS:
            reference = stored[workload]["jobs"]
            runner = runner_class(cli, check, Tracer(), [], run_dir)
            for job in jobgen.make_jobs(workload, jobgen.DEFAULT_SEED):
                if job["id"] not in selected:
                    continue
                out_dir = os.path.join(run_dir, job["id"])
                rc = runner.run_job(job, out_dir)
                _verify(job, rc, out_dir, reference)   # the clean run must pass
                outputs[job["id"]] = (job, out_dir, reference)
                print(f"clean   {job['id']:14s} passes")
        job, out_dir, reference = outputs["hemisphere-0"]
        try:
            _verify(job, 2, out_dir, reference)
            print("MISSED  non-zero exit code")
        except check.CheckError as exc:
            caught += 1
            print(f"caught  non-zero exit code: {exc}")
        for what, job_id, artifact, edit in PERTURBATIONS:
            job, out_dir, reference = outputs[job_id]
            copy = os.path.join(run_dir, "perturbed")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out_dir, copy)
            edit(os.path.join(copy, artifact))
            try:
                _verify(job, 0, copy, reference)
                print(f"MISSED  {what}")
            except check.CheckError as exc:
                caught += 1
                print(f"caught  {what}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    total = len(PERTURBATIONS) + 1
    print(f"self-test: {caught} of {total} perturbations caught")
    return 0 if caught == total else 1


if __name__ == "__main__":
    sys.exit("run through: python3 perfbench/run.py --selftest")
