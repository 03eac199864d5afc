"""Every artifact of the default runs against checked-in fingerprints.

The 12 subcommands on the default scenario, ``train`` at 2000 trials,
``aclr-sweep`` at the other channel bandwidths of ``PRB_TABLE_120KHZ`` and
the benchmark's ``chain`` training jobs at seeds 0-3 run in-process once
per session.  Every artifact but the run manifests is fingerprinted with
``perfbench/check.py`` (every JSON leaf; per CSV column its row count,
sums, extremes and an index-weighted sum, text columns hashed) and
compared with ``reference_outputs.json`` within check.py's relative
tolerance, so FFT rounding that differs between numpy versions passes
while a moved value, row or column does not.

A change that moves artifacts on purpose regenerates the file with
``pytest tests/test_reference_outputs.py --write-reference-outputs`` and
lists each fingerprint that moved.
"""

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import pytest

from risant.cli import COMMANDS, main
from risant.link import DEFAULT_CHANNEL_BANDWIDTH_MHZ, PRB_TABLE_120KHZ

REFERENCE = Path(__file__).with_name("reference_outputs.json")

# the default scenario's hash, pinned: a changed default moves it
SCENARIO_HASH = "8388fb92a851ad8737c513c0537bcdceda6e9e3d174c2a5bbd691d627f92b65d"

CHAIN_SEEDS = (0, 1, 2, 3)
ACLR_BANDWIDTHS_MHZ = [bw for bw in sorted(PRB_TABLE_120KHZ) if bw != DEFAULT_CHANNEL_BANDWIDTH_MHZ]
RUN_IDS = [*COMMANDS, "train-2000", *(f"aclr-sweep-{bw}mhz" for bw in ACLR_BANDWIDTHS_MHZ),
           *(f"chain-seed{seed}-train" for seed in CHAIN_SEEDS)]


def _run_args(perfbench_jobs):
    """{run id: subcommand and overrides}, in RUN_IDS order."""
    runs = {command: [command] for command in COMMANDS}
    runs["train-2000"] = ["train", "--training.n_trials", "2000"]
    for bw in ACLR_BANDWIDTHS_MHZ:
        runs[f"aclr-sweep-{bw}mhz"] = ["aclr-sweep", "--link.aclr.channel_bandwidth_mhz", str(bw)]
    for seed in CHAIN_SEEDS:
        job, = (job for job in perfbench_jobs.make_jobs("chain", seed) if job["cmd"] == "train")
        runs[f"chain-seed{seed}-train"] = job["args"]
    assert list(runs) == RUN_IDS
    return runs


@pytest.fixture(scope="module")
def outputs(request, perfbench_jobs, perfbench_check, tmp_path_factory):
    """{run id: (args, output directory, artifact names, exit code, manifest)},
    each run once; with --write-reference-outputs the reference file is
    rewritten from them first."""
    root = tmp_path_factory.mktemp("reference-outputs")
    runs = {}
    for run_id, args in _run_args(perfbench_jobs).items():
        out_dir = root / run_id
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*args, "--out", str(out_dir)])
        manifest = json.loads((out_dir / f"{args[0].replace('-', '_')}_manifest.json")
                              .read_text(encoding="utf-8"))
        runs[run_id] = (args, out_dir, manifest["outputs"], rc, manifest)
    if request.config.getoption("--write-reference-outputs"):
        REFERENCE.write_text(json.dumps({
            "scenario_hash": SCENARIO_HASH, "rel_tol": perfbench_check.REL_TOL,
            "runs": {run_id: {
                "args": args, "scenario_hash": manifest["scenario_hash"],
                "artifacts": {name: perfbench_check.fingerprint(str(out_dir / name))
                              for name in names}}
                for run_id, (args, out_dir, names, _, manifest) in runs.items()},
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return runs


@pytest.fixture(scope="module")
def reference(outputs):
    """The stored fingerprints, read after ``outputs`` may have rewritten them."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reference_covers_the_runs(reference, perfbench_check):
    assert list(reference["runs"]) == sorted(RUN_IDS)
    assert reference["scenario_hash"] == SCENARIO_HASH
    assert reference["rel_tol"] == perfbench_check.REL_TOL


@pytest.mark.parametrize("run_id", RUN_IDS)
def test_artifacts_match_the_reference(run_id, outputs, reference, perfbench_check):
    args, out_dir, names, rc, manifest = outputs[run_id]
    run = reference["runs"][run_id]
    assert rc == 0
    assert args == run["args"]
    assert manifest["scenario_hash"] == run["scenario_hash"]
    if args == [manifest["subcommand"]]:   # no override: the default scenario
        assert manifest["scenario_hash"] == SCENARIO_HASH
    perfbench_check.check_reference(run_id, names, str(out_dir), run["artifacts"])


def _edit_json(path, key, change):
    data = json.loads(path.read_text(encoding="utf-8"))
    data[key] = change(data[key])
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_csv(path, change):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = change(list(csv.reader(fh)))
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


def _negate_cell(row, col):
    def change(rows):
        rows[row][col] = {"true": "false", "false": "true"}[rows[row][col]]
        return rows
    return change


def _swap_cells(row_a, row_b, col):
    def change(rows):
        rows[row_a][col], rows[row_b][col] = rows[row_b][col], rows[row_a][col]
        return rows
    return change


# each kind of perturbation perfbench's --selftest makes, on these runs'
# artifacts: (what it models, run id, artifact, edit of the artifact path)
PERTURBATIONS = [
    ("peak gain off by 1e-7 relative", "pattern", "pattern.json",
     lambda p: _edit_json(p, "peak_gain_dbi", lambda v: v * (1 + 1e-7))),
    ("one cut sample off by 1e-5 relative", "pattern", "pattern_cut_az.csv",
     lambda p: _edit_csv(p, _scale_cell(361, 1, 1 + 1e-5))),
    ("peak gain above the aperture bound", "pattern", "pattern.json",
     lambda p: _edit_json(p, "peak_gain_dbi", lambda v: 40.0)),
    ("steering row lost", "steer", "steer.csv", lambda p: _edit_csv(p, lambda rows: rows[:-1])),
    ("spillover above one", "feed-opt", "feed_opt.json",
     lambda p: _edit_json(p, "eta_spillover", lambda v: 1.05)),
    ("NaN in a training row", "train", "train.csv", lambda p: _edit_csv(p, _set_cell(5, 1, "nan"))),
    ("two element positions swapped", "geometry", "geometry.csv",
     lambda p: _edit_csv(p, _swap_cells(1, 2, 2))),
    # beyond --selftest: the flipped trial a batched descent could cause
    ("one trial's outcome flipped", "chain-seed2-train", "train.csv",
     lambda p: _edit_csv(p, _negate_cell(7, 2))),
]


@pytest.mark.parametrize("what, run_id, artifact, edit", PERTURBATIONS,
                         ids=[p[0] for p in PERTURBATIONS])
def test_a_perturbed_artifact_misses_the_reference(what, run_id, artifact, edit, outputs,
                                                   reference, perfbench_check, tmp_path):
    _, out_dir, names, _, _ = outputs[run_id]
    copy = tmp_path / run_id
    shutil.copytree(out_dir, copy)
    edit(copy / artifact)
    with pytest.raises(perfbench_check.CheckError):
        perfbench_check.check_reference(run_id, names, str(copy),
                                        reference["runs"][run_id]["artifacts"])

