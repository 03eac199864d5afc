"""End-to-end exercises of the batch command line interface.

Every subcommand is driven in-process through ``main`` with a
temporary output directory; the heavier pipelines get scenario
overrides that shrink grids and trial counts so the whole module stays
fast.  File contents are checked, not just exit codes: the CSV writer
promises byte-identical artifacts for identical scenario and seed.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risant
from risant import __version__, cli, element, geometry, pattern, synthesis
from risant.cli import COMMANDS, main
from risant.element import SweepRange
from risant.constants import wavelength_mm
from risant.feedopt import MAX_SEARCH_EXTENT_MM, MIN_SEARCH_HEIGHT_MM, FeedSearchSpace
from risant.link import MAX_ACLR_SYMBOLS, MAX_EVM_SYMBOLS
from risant.pattern import DEFAULT_GRID_STEP_DEG, MIN_GRID_STEP_DEG
from risant.scenario import _LITERALS, iter_leaf_paths, resolve_scenario
from risant.synthesis import MAX_TRAINING_TRIALS

# overrides that keep each subcommand cheap without changing its shape
FAST_ARGS = {
    "element-opt": [],
    "pattern": ["--pattern.step_deg", "1.0"],
    "steer": ["--pattern.scan_az_deg", "[0.0, 30.0]",
              "--pattern.scan_el_deg", "[10.0]"],
    "widebeam": [],
    "feed-opt": ["--feed.search.x_mm", "[-100.0, -60.0]",
                 "--feed.search.z_mm", "[130.0, 170.0]"],
    "link": [],
    "evm-sweep": [],
    "aclr-sweep": ["--link.aclr.n_symbols", "16",
                   "--link.aclr.centers_ghz", "[26.0]",
                   "--link.aclr.aod_az_deg", "[0.0]"],
    "dual-stream": [],
    "rate": [],
    "train": ["--training.n_trials", "4"],
    "geometry": [],
}

# one artifact per subcommand whose presence we assert by name
KNOWN_OUTPUT = {
    "element-opt": "element_opt.json",
    "pattern": "pattern.json",
    "steer": "steer.csv",
    "widebeam": "widebeam.json",
    "feed-opt": "feed_opt.json",
    "link": "link.json",
    "evm-sweep": "evm_sweep.csv",
    "aclr-sweep": "aclr_sweep.csv",
    "dual-stream": "dual_stream.csv",
    "rate": "rate.json",
    "train": "train.csv",
    "geometry": "geometry.csv",
}

RATE_DEFAULT_BPS = 5036473728.0      # prototype frame, overhead 0.14
RATE_OH18_BPS = 4802219136.0         # same frame at overhead 0.18


def run_cli(command, out_dir, *extra):
    return main([command, "--out", str(out_dir), *FAST_ARGS[command], *extra])


def read_json(out_dir, name):
    with open(os.path.join(str(out_dir), name), encoding="utf-8") as fh:
        return json.load(fh)


def read_manifest(out_dir, command):
    return read_json(out_dir, command.replace("-", "_") + "_manifest.json")


class TestParser:
    def test_registry_matches_dispatch_table(self):
        (command,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        assert list(command.choices) == list(COMMANDS)
        assert len(COMMANDS) == 12

    def test_scenario_and_out_are_the_only_run_options(self):
        options = {s for a in cli.build_parser()._actions for s in a.option_strings}
        assert options == {"-h", "--help", "--version", "--scenario", "--out"}

    @pytest.mark.parametrize("argv, option", [
        (["rate", "--seed", "7"], "--seed"),
        (["element-opt", "--strict"], "--strict"),
    ])
    def test_removed_run_options_are_unrecognized(self, argv, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_abbreviated_flags_rejected(self, tmp_path):
        # allow_abbrev=False: --sc must not silently mean --scenario
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--sc", str(tmp_path / "x.yaml")])
        assert excinfo.value.code == 2

    def test_unknown_override_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--link.bogus", "1", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_leaf_flag_takes_a_value_that_starts_with_a_dash(self):
        # argparse alone reads -1.5e1 as a flag: only plain negative numbers
        # such as -3 and -0.5 look like values to it
        args = cli.build_parser().parse_args(
            ["pattern", "--pattern.target.az_deg", "-1.5e1", "--pattern.target.el_deg",
             "-0.5", "--array.n_x", "-3", "--out", "x"])
        assert args.overrides == [("pattern.target.az_deg", "-1.5e1"),
                                  ("pattern.target.el_deg", -0.5), ("array.n_x", -3)]
        assert args.out == "x"

    def test_leaf_flag_before_a_long_flag_has_no_value(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["pattern", "--pattern.target.az_deg", "--out", "x"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, command, overrides", [
        (["rate", "--frame.overhead", "0.18"], "rate", [("frame.overhead", 0.18)]),
        (["rate", "--frame.overhead=0.18"], "rate", [("frame.overhead", 0.18)]),
        (["rate", "--frame.overhead", "0.1", "--frame.overhead=0.2"], "rate",
         [("frame.overhead", 0.1), ("frame.overhead", 0.2)]),
        (["--frame.overhead", "0.18", "rate"], "rate", [("frame.overhead", 0.18)]),
        (["pattern", "--pattern.target.az_deg", "-1.5e1"], "pattern",
         [("pattern.target.az_deg", "-1.5e1")]),
        (["pattern", "--pattern.target.az_deg=-1.5e1"], "pattern",
         [("pattern.target.az_deg", "-1.5e1")]),
        (["geometry", "--array.n_x", "-3"], "geometry", [("array.n_x", -3)]),
        (["pattern", "--pattern.target.el_deg", "-0.5"], "pattern",
         [("pattern.target.el_deg", -0.5)]),
        (["steer", "--pattern.scan_az_deg", "[-30.0, 0, 30]"], "steer",
         [("pattern.scan_az_deg", [-30.0, 0, 30])]),
        (["rate", "--frame.overhead="], "rate", [("frame.overhead", None)]),
        (["rate", "--rng_seed", "3"], "rate", [("rng_seed", 3)]),
    ])
    def test_leaf_flags_give_the_overrides_in_argv_order(self, argv, command, overrides):
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.overrides) == (command, overrides)

    @pytest.mark.parametrize("argv, message", [
        (["rate", "--frame.overhead"], "argument --frame.overhead: expected one argument"),
        (["rate", "--frame.overhead", "--out", "x"],
         "argument --frame.overhead: expected one argument"),
        (["rate", "--link.bogus", "1"], "--link.bogus"),
        (["rate", "--frame.over", "0.1"], "--frame.over"),
        (["rate", "--frame.overheads", "0.1"], "--frame.overheads"),
        (["pattern", "--feed.position_mm", "[1, 2"], "cannot parse value for --feed.position_mm"),
        (["rate", "--", "--frame.overhead", "0.1"], "--frame.overhead"),
    ])
    def test_bad_leaf_flag_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_reads_every_value_as_the_python_loader(self, perfbench_jobs):
        assert cli._YAML_LOADER is yaml.CSafeLoader
        tokens = {token for workload in perfbench_jobs.WORKLOADS for seed in range(8)
                  for job in perfbench_jobs.make_jobs(workload, seed)
                  for token in job["args"][2::2]}
        tokens |= {"1e5", "-1.5e1", "true", ".inf"}
        tokens |= {value for *_, value in _BAD_LITERAL_VALUES + _BAD_MODEL_VALUES}
        for token in tokens:
            fast = yaml.load(token, Loader=yaml.CSafeLoader)
            slow = yaml.load(token, Loader=yaml.SafeLoader)
            # repr tells 1 from 1.0, True and "1e5", and reads nan as nan
            assert (type(fast), repr(fast)) == (type(slow), repr(slow)), token

    def test_exponent_form_writes_the_plain_value_pattern(self, tmp_path):
        a, b = tmp_path / "exponent", tmp_path / "plain"
        assert main(["pattern", "--pattern.target.az_deg", "-1.5e1", "--out", str(a)]) == 0
        assert main(["pattern", "--pattern.target.az_deg", "-15", "--out", str(b)]) == 0
        assert (a / "pattern.json").read_bytes() == (b / "pattern.json").read_bytes()
        assert read_json(a, "pattern.json")["target"]["az_deg"] == -15.0

    def test_two_runs_build_one_parser(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["rate", "--frame.overhead", "0.18", "--out", str(tmp_path)]) == 0
            assert main(["rate", "--out", str(tmp_path)]) == 0
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
        # the second run starts from the defaults, not the first's override
        assert read_json(tmp_path, "rate.json")["rate_bps"] == pytest.approx(
            RATE_DEFAULT_BPS, rel=1e-12)


class TestImportPath:
    @staticmethod
    def _fresh_import(code):
        """stdout of ``code`` run in a new interpreter on this source tree."""
        src = os.path.dirname(os.path.dirname(risant.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only, and costs over a second to import
        assert self._fresh_import(
            "import sys, risant.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))") == "[]"

    def test_feed_opt_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every `import scipy...` raise;
        # feed-opt's polish is the last code path that once imported it
        blocked, in_process = tmp_path / "blocked", tmp_path / "in_process"
        args = ["feed-opt", "--out", str(blocked)]
        out = self._fresh_import(
            "import sys; sys.modules['scipy'] = None; from risant.cli import main; "
            f"print('rc', main({args!r}))")
        assert out.splitlines()[-1] == "rc 0"
        assert main(["feed-opt", "--out", str(in_process)]) == 0
        for name in ("feed_opt.json", "feed_scan.csv", "feed_refine.csv"):
            assert (blocked / name).read_bytes() == (in_process / name).read_bytes()

    def test_import_builds_no_steered_gain_table(self):
        # the lag tables of steered_gain's 1 deg grid and of pattern's grid
        # are built on the first call that needs them
        assert self._fresh_import(
            "import risant.cli; from risant.pattern import _grid_tables; "
            "print(_grid_tables.cache_info().misses, _grid_tables.cache_info().currsize)") == "0 0"


class TestClosure:
    """Every subcommand runs to completion on the default scenario."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_subcommand_runs_clean(self, command, tmp_path, capsys):
        rc = run_cli(command, tmp_path)
        assert rc == 0

        manifest = read_manifest(tmp_path, command)
        assert manifest["tool_version"] == __version__
        assert manifest["subcommand"] == command
        assert manifest["seed"] == 0
        assert len(manifest["scenario_hash"]) == 64
        assert manifest["wall_clock_s"] >= 0.0
        assert KNOWN_OUTPUT[command] in manifest["outputs"]
        for name in manifest["outputs"]:
            assert (tmp_path / name).is_file()

        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith(command + ":")
        wrote = [ln for ln in lines if ln.startswith("  wrote ")]
        assert len(wrote) == len(manifest["outputs"]) + 1  # plus the manifest

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_writes_nothing_and_returns_the_manifest_outputs(
            self, command, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        args = cli.build_parser().parse_args([command, *FAST_ARGS[command]])
        artifacts, summary = COMMANDS[command](resolve_scenario(None, args.overrides))
        assert list(work.iterdir()) == []
        assert summary.startswith(command + ":")
        assert run_cli(command, tmp_path / "out") == 0
        assert list(artifacts) == read_manifest(tmp_path / "out", command)["outputs"]

    @pytest.mark.parametrize("argv", [
        # the finest grid (3.2 M directions), and a step that does not divide 90
        ["pattern", "--pattern.step_deg", "0.1"],
        ["pattern", "--pattern.step_deg", "0.7"],
        ["rate", "--frame.overhead=0.18"],
    ])
    def test_finest_and_odd_steps_and_a_joined_value_run_clean(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        if argv[0] == "rate":
            assert read_json(tmp_path, "rate.json")["frame"]["overhead"] == 0.18

    def test_missed_target_without_strict_exits_0_with_its_manifest(self, tmp_path):
        assert main(["element-opt", "--out", str(tmp_path),
                     "--element.targets.min_amplitude", "0.999",
                     "--element.max_rounds", "2"]) == 0
        assert read_manifest(tmp_path, "element-opt")["outputs"] == [
            "element_opt.json", "element_trace.csv"]


class TestOutputDirectory:
    def test_out_flag_creates_nested_directory(self, tmp_path):
        nested = tmp_path / "runs" / "a"
        assert main(["rate", "--out", str(nested)]) == 0
        assert (nested / "rate.json").is_file()

    def test_default_is_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["rate"]) == 0
        assert (tmp_path / "rate.json").is_file()

    def test_no_environment_variable_moves_the_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RISANT_OUTPUT_DIR", str(tmp_path / "env"))
        assert main(["rate"]) == 0
        assert (tmp_path / "rate.json").is_file()
        assert not (tmp_path / "env").exists()


@pytest.fixture(scope="module")
def geometry_out(tmp_path_factory):
    path = tmp_path_factory.mktemp("geometry_cli")
    assert main(["geometry", "--out", str(path)]) == 0
    return path


class TestGeometryArtifacts:
    def test_csv_has_one_row_per_element(self, geometry_out):
        with open(geometry_out / "geometry.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = fh.read().strip().splitlines()
        assert header == ["index", "group", "x_mm", "y_mm", "z_mm"]
        assert len(rows) == 1024
        # row-major lattice: the corner element leads, formatted as %.10g
        assert rows[0] == "0,0,-77.5,-77.5,0"

    def test_csv_lattice_extents_and_grouping(self, geometry_out):
        data = np.loadtxt(geometry_out / "geometry.csv", delimiter=",", skiprows=1)
        assert data.shape == (1024, 5)
        assert data[:, 0].tolist() == list(range(1024))
        for col in (2, 3):
            assert data[:, col].min() == -77.5
            assert data[:, col].max() == 77.5
        assert np.all(data[:, 4] == 0.0)
        groups, counts = np.unique(data[:, 1], return_counts=True)
        assert len(groups) == 512
        assert np.all(counts == 2)

    def test_json_summary(self, geometry_out):
        payload = read_json(geometry_out, "geometry.json")
        assert payload["n_elements"] == 1024
        assert payload["n_groups"] == 512
        assert payload["aperture_m2"] == pytest.approx(0.0256, rel=1e-12)
        assert payload["extent_x_mm"] == [-77.5, 77.5]
        assert payload["extent_y_mm"] == [-77.5, 77.5]


class TestRateAndOverrides:
    def test_default_rate(self, tmp_path):
        assert run_cli("rate", tmp_path) == 0
        payload = read_json(tmp_path, "rate.json")
        assert payload["rate_bps"] == pytest.approx(RATE_DEFAULT_BPS, rel=1e-12)
        assert payload["frame"]["overhead"] == 0.14
        assert payload["dl_duty"] == pytest.approx(52.0 / 70.0, rel=1e-12)

    def test_dotted_override_changes_output(self, tmp_path):
        assert run_cli("rate", tmp_path, "--frame.overhead", "0.18") == 0
        payload = read_json(tmp_path, "rate.json")
        assert payload["rate_bps"] == pytest.approx(RATE_OH18_BPS, rel=1e-12)
        assert payload["frame"]["overhead"] == 0.18

    def test_override_changes_scenario_hash(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["rate", "--out", str(a)]) == 0
        assert main(["rate", "--out", str(b), "--frame.overhead", "0.18"]) == 0
        assert (read_manifest(a, "rate")["scenario_hash"]
                != read_manifest(b, "rate")["scenario_hash"])

    def test_flag_wins_over_scenario_file(self, tmp_path):
        scenario = tmp_path / "scn.yaml"
        scenario.write_text("frame:\n  overhead: 0.18\n", encoding="utf-8")

        file_only = tmp_path / "file_only"
        assert main(["rate", "--scenario", str(scenario),
                     "--out", str(file_only)]) == 0
        assert read_json(file_only, "rate.json")["rate_bps"] == pytest.approx(
            RATE_OH18_BPS, rel=1e-12)

        both = tmp_path / "both"
        assert main(["rate", "--scenario", str(scenario), "--out", str(both),
                     "--frame.overhead", "0.14"]) == 0
        assert read_json(both, "rate.json")["rate_bps"] == pytest.approx(
            RATE_DEFAULT_BPS, rel=1e-12)

    def test_seed_flag_recorded_in_manifest(self, tmp_path):
        assert run_cli("rate", tmp_path, "--rng_seed", "7") == 0
        assert read_manifest(tmp_path, "rate")["seed"] == 7

    @pytest.mark.parametrize("overrides, cross_pol_db", [
        ([], -15.19),
        (["--array.polarization", "V"], -10.16),
        (["--array.polarization", "V", "--link.xpd_db.v", "-12.5"], -12.5),
        (["--link.xpd_db.v", "-12.5"], -15.19),
    ])
    def test_array_polarization_picks_the_cross_pol(self, overrides, cross_pol_db,
                                                    tmp_path):
        # the assembly takes link.xpd_db of the array's polarization
        assert run_cli("pattern", tmp_path, *overrides) == 0
        assert read_json(tmp_path, "pattern.json")["cross_pol_db"] == cross_pol_db


class TestDeterminism:
    def test_train_csv_is_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("train", out) == 0
        bytes_a = (a / "train.csv").read_bytes()
        assert bytes_a == (b / "train.csv").read_bytes()
        assert len(bytes_a.strip().splitlines()) == 5  # header + 4 trials

    def test_seed_changes_train_draws(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train", a) == 0
        assert run_cli("train", b, "--rng_seed", "1") == 0
        assert (a / "train.csv").read_bytes() != (b / "train.csv").read_bytes()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_seeded_artifacts_are_byte_identical_across_runs(self, command, tmp_path):
        # every CSV and JSON artifact; the manifest holds the wall clock
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(command, out, "--rng_seed", "7") == 0
        names = read_manifest(a, command)["outputs"]
        assert names == read_manifest(b, command)["outputs"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_link_json_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("link", out) == 0
        assert (a / "link.json").read_bytes() == (b / "link.json").read_bytes()


# one column per kind of value, and the text of its cells; a list that mixes
# kinds is promoted to one dtype by numpy, and each cell still gets _fmt's text
_KIND_COLUMNS = [
    ([True, False], ["true", "false"]),
    (np.array([True, False]), ["true", "false"]),
    ([0, -7], ["0", "-7"]),
    (np.array([12, -3], dtype=np.int64), ["12", "-3"]),
    (np.array([-3, 5], dtype=np.int32), ["-3", "5"]),
    ([2**70, -2**70], ["1180591620717411303424", "-1180591620717411303424"]),
    ([1.5, -0.0, 1e-320, 1 / 3], ["1.5", "-0", "9.999888672e-321", "0.3333333333"]),
    (np.array([2.0 / 3.0, -0.0, np.nan]), ["0.6666666667", "-0", "nan"]),
    (np.array([0.1], dtype=np.float32), ["0.1000000015"]),
    ([-math.inf, math.inf, math.nan], ["-inf", "inf", "nan"]),
    (np.array([-np.inf, np.inf]), ["-inf", "inf"]),
    (["H", None], ["H", "None"]),
    (np.array(["V", "H"]), ["V", "H"]),
    # lists of numpy scalars, as zip(*rows) gives a row-built table's columns
    ([np.bool_(True), np.bool_(False)], ["true", "false"]),
    ([np.int64(12), np.int32(-3)], ["12", "-3"]),
    ([np.float64(2.0 / 3.0), np.float64(-np.inf)], ["0.6666666667", "-inf"]),
    ([np.str_("V"), "H"], ["V", "H"]),
    # mixed kinds: numpy makes [True, 2] integers and [12345678901, 0.5] floats
    ([True, 2], ["true", "2"]),
    ([12345678901, 0.5], ["12345678901", "0.5"]),
    ([True, 2, 2.5, 2**70, np.float32(0.1), "x", None],
     ["true", "2", "2.5", "1180591620717411303424", "0.1000000015", "x", "None"]),
]


def _fmt_rows(header, columns) -> bytes:
    """The CSV text of ``columns``, each cell by ``cli._fmt``."""
    lines = [",".join(header)] + [",".join(map(cli._fmt, row)) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvFormatting:
    @pytest.mark.parametrize("column, cells", _KIND_COLUMNS)
    def test_each_kind_of_cell_has_its_per_value_text(self, column, cells, tmp_path):
        path = cli.write_csv(str(tmp_path / "cells.csv"), ["v"], [column])
        with open(path, "rb") as fh:
            text = fh.read()
        assert text == _fmt_rows(["v"], [column])
        assert text.decode("utf-8").splitlines() == ["v", *cells]

    def test_columns_interleave_into_rows(self, tmp_path):
        columns = [[True, False], np.array([12, -3]), [1.5, -0.0], ["H", None],
                   np.array([0.1, np.nan], dtype=np.float32)]
        path = cli.write_csv(str(tmp_path / "rows.csv"), list("abcde"), columns)
        with open(path, "rb") as fh:
            assert fh.read() == b"a,b,c,d,e\ntrue,12,1.5,H,0.1000000015\nfalse,-3,-0,None,nan\n"

    @pytest.mark.parametrize("columns", [[], zip(*[]), [np.array([]), np.array([], dtype=int)]])
    def test_no_rows_write_the_header_alone(self, columns, tmp_path):
        path = cli.write_csv(str(tmp_path / "empty.csv"), ["a", "b"], columns)
        with open(path, "rb") as fh:
            assert fh.read() == b"a,b\n"

    # either side of the first block's end, and one row into a third block
    @pytest.mark.parametrize("n_rows", [cli._CSV_BLOCK_ROWS + d for d in (-1, 0, 1)]
                             + [2 * cli._CSV_BLOCK_ROWS + 1])
    def test_rows_across_write_blocks_match_per_value_formatting(self, n_rows, tmp_path):
        rng = np.random.default_rng(n_rows)
        floats = rng.normal(scale=1e3, size=n_rows)
        floats[::97] = np.resize([np.nan, -0.0, np.inf, -np.inf, 1e-320], floats[::97].size)
        columns = [np.arange(n_rows), rng.integers(-2**62, 2**62, n_rows), floats,
                   floats.astype(np.float32), np.arange(n_rows) % 3 == 0,
                   (floats * 10).tolist(), [f"s{i}" for i in range(n_rows)]]
        path = cli.write_csv(str(tmp_path / "blocks.csv"), list("abcdefg"), columns)
        with open(path, "rb") as fh:
            assert fh.read() == _fmt_rows(list("abcdefg"), columns)

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match=r"differ in length: \[3, 2\]"):
            cli.write_csv(str(path), ["a", "b"], [np.arange(3), [1.0, 2.0]])
        assert not path.exists()

    def test_booleans_render_lowercase(self, tmp_path):
        assert run_cli("evm-sweep", tmp_path) == 0
        with open(tmp_path / "evm_sweep.csv", encoding="utf-8") as fh:
            fh.readline()
            flags = {line.strip().split(",")[-1] for line in fh}
        assert flags <= {"true", "false"}
        assert "true" in flags


# each _LITERALS key with a value just outside its check, .inf where a
# number is read and true where an integer is read; every key resolves when
# the scenario loads, so the cheapest command serves all of the new rows
_BAD_LITERAL_VALUES = [
        ("rate", "rng_seed", "foo"),
        ("rate", "rng_seed", "1.5"),
        ("link", "link.evm_symbols", "foo"),
        ("train", "training.n_trials", "0"),
        ("pattern", "pattern.step_deg", "0"),
        ("pattern", "pattern.step_deg", "200"),
        ("evm-sweep", "link.sweep_distances_m", "[]"),
        ("evm-sweep", "link.sweep_distances_m", "[4.0, 2.0]"),
        ("evm-sweep", "link.sweep_distances_m", "[0, 1]"),
        ("train", "training.n_trials", "true"),
        ("train", "training.sector_az_deg", "[10, 10]"),
        ("widebeam", "pattern.widebeam.n_subapertures", "foo"),
        ("aclr-sweep", "link.aclr.n_symbols", "foo"),
        ("element-opt", "element.max_rounds", "foo"),
        ("dual-stream", "link.stream_gains_dbi.h", "foo"),
        ("train", "training.branching", "0"),
        ("widebeam", "pattern.widebeam.sector_az_deg", "[10.0,-10.0]"),
        ("pattern", "pattern.target.az_deg", "80"),
        ("steer", "pattern.scan_az_deg", "[80.0]"),
        ("train", "training.sector_az_deg", "[-80.0,80.0]"),
        ("rate", "rng_seed", "-1"),
    ("rate", "rng_seed", ".inf"),
    ("rate", "rng_seed", "true"),
    ("rate", "element.max_rounds", "-1"),
    ("rate", "element.max_rounds", ".inf"),
    ("rate", "element.max_rounds", "true"),
    ("rate", "pattern.frequency_ghz", "0"),
    ("rate", "pattern.frequency_ghz", "10000.01"),
    ("pattern", "pattern.frequency_ghz", "1e300"),
    ("widebeam", "pattern.frequency_ghz", "1e300"),
    ("train", "pattern.frequency_ghz", "1e300"),
    ("rate", "pattern.step_deg", "90.01"),
    ("rate", "pattern.step_deg", "0.099"),
    ("rate", "pattern.step_deg", ".inf"),
    ("rate", "pattern.target.az_deg", "-60.01"),
    ("rate", "pattern.target.az_deg", ".inf"),
    ("rate", "pattern.target.el_deg", "30.01"),
    ("rate", "pattern.target.el_deg", "-30.01"),
    ("rate", "pattern.target.el_deg", ".inf"),
    ("rate", "pattern.scan_az_deg", "[0.0, 60.01]"),
    ("rate", "pattern.scan_az_deg", "[-.inf]"),
    ("rate", "pattern.scan_el_deg", "[-30.01]"),
    ("rate", "pattern.scan_el_deg", "[.inf]"),
    ("rate", "pattern.widebeam.sector_az_deg", "[-60.01, 0.0]"),
    ("rate", "pattern.widebeam.sector_az_deg", "[0.0, 0.0]"),
    ("rate", "pattern.widebeam.sector_az_deg", "[0.0, .inf]"),
    ("rate", "pattern.widebeam.el_deg", "30.01"),
    ("rate", "pattern.widebeam.el_deg", ".inf"),
    ("rate", "pattern.widebeam.n_subapertures", "0"),
    ("rate", "pattern.widebeam.n_subapertures", ".inf"),
    ("rate", "pattern.widebeam.n_subapertures", "true"),
    ("rate", "pattern.incidence.enabled", "1"),
    ("rate", "pattern.compensate_incidence", "1"),
    ("rate", "link.evm_symbols", "0"),
    ("rate", "link.evm_symbols", str(MAX_EVM_SYMBOLS + 1)),
    ("rate", "link.evm_symbols", ".inf"),
    ("rate", "link.evm_symbols", "true"),
    ("rate", "link.sweep_distances_m", "[-0.01, 1.0]"),
    ("rate", "link.sweep_distances_m", "[1.0, .inf]"),
    ("rate", "link.aclr.centers_ghz", "[.inf]"),
    ("rate", "link.aclr.channel_bandwidth_mhz", "401"),
    ("rate", "link.aclr.channel_bandwidth_mhz", "300"),
    ("rate", "link.aclr.channel_bandwidth_mhz", ".inf"),
    # a channel near a table entry, which the measurement would take for it
    ("rate", "link.aclr.channel_bandwidth_mhz", "399.6"),
    ("rate", "link.aclr.channel_bandwidth_mhz", "400.4"),
    ("rate", "link.aclr.n_symbols", "0"),
    ("rate", "link.aclr.n_symbols", str(MAX_ACLR_SYMBOLS + 1)),
    ("rate", "link.aclr.n_symbols", ".inf"),
    ("rate", "link.aclr.n_symbols", "true"),
    ("rate", "link.aclr.aod_az_deg", "[-.inf]"),
    ("rate", "link.stream_gains_dbi.h", ".inf"),
    ("rate", "link.stream_gains_dbi.v", "-.inf"),
    ("rate", "training.n_levels", "0"),
    ("rate", "training.n_levels", ".inf"),
    ("rate", "training.n_levels", "true"),
    ("rate", "training.branching", "1"),
    ("rate", "training.branching", ".inf"),
    ("rate", "training.branching", "true"),
    ("rate", "training.pilot_snr_db", ".inf"),
    ("rate", "training.n_trials", ".inf"),
    ("rate", "training.n_trials", str(MAX_TRAINING_TRIALS + 1)),
    ("rate", "training.accept_threshold_db", "-.inf"),
    ("rate", "training.sector_az_deg", "[0.0, 60.01]"),
    ("rate", "training.sector_az_deg", "[.inf, 0.0]"),
    ("rate", "training.el_deg", "-30.01"),
    ("rate", "training.el_deg", ".inf"),
    # dB values whose ratios 10**(x/10) overflow, or underflow to a log of 0,
    # in the command that reads them
    ("train", "training.pilot_snr_db", "-1e300"),
    ("train", "training.accept_threshold_db", "1e300"),
    ("train", "training.accept_threshold_db", "1e15"),
    ("dual-stream", "link.stream_gains_dbi.h", "1e300"),
    ("dual-stream", "link.stream_gains_dbi.h", "-1e300"),
    ("dual-stream", "link.stream_gains_dbi.h", "1e15"),
    ("dual-stream", "link.stream_gains_dbi.v", "1e300"),
    ("dual-stream", "link.stream_gains_dbi.v", "-1e300"),
    ("dual-stream", "link.stream_gains_dbi.v", "1e15"),
    # a distance past link.LINK_DISTANCE_M, whose path loss overflows its ratio
    ("evm-sweep", "link.sweep_distances_m", "[1e300]"),
]


# each check of a model class that the scenario builds, by a key that breaks
# it, on the cheapest command (with the flags it needs) that builds the
# class; the class's message follows the key
_BAD_MODEL_VALUES = [
    ("geometry", "array.n_x", "foo"),
    ("geometry", "array.n_x", "0"),
    ("geometry", "array.n_y", "0"),
    ("geometry", "array.n_x", "257"),
    ("geometry", "array.period_mm", "-1"),
    ("geometry", "array.period_mm", "0"),
    ("geometry", "array.polarization", "X"),
    ("geometry", "array.group_size", "3"),
    ("geometry", "array.group_size", "0"),
    ("geometry", "array.group_axis", "z"),
    ("pattern", "feed.position_mm", "[0,0]"),
    ("pattern", "feed.position_mm", "[-82, 0, 0]"),
    ("pattern", "feed.pattern_exponent", "-1"),
    ("feed-opt", "feed.search.x_mm", "[10, -10]"),
    ("feed-opt", "feed.search.y_mm", "[1, -1]"),
    ("feed-opt", "feed.search.z_mm", "[200, 100]"),
    ("feed-opt", "feed.search.z_mm", "[0, 100]"),
    ("feed-opt", "feed.search.coarse_step_mm", "0"),
    ("feed-opt", "feed.search.coarse_step_mm", "0.001"),
    ("pattern", "pattern.frequency_ghz", ".nan"),
    ("pattern", "pattern.frequency_ghz", ".inf"),
    ("pattern", "link.xpd_db.v", "3"),
    ("dual-stream", "link.xpd_db.h", "3"),
    ("pattern", "element.diode.r_on_ohm", "-1"),
    ("pattern", "element.diode.r_off_ohm", "0"),
    ("pattern", "element.diode.l_diode_nh", "-1"),
    ("pattern", "element.diode.c_off_ff", "0"),
    ("pattern", "element.design.c_p_ff", "0"),
    ("pattern", "element.design.l_p_nh", "-1"),
    ("pattern", "element.design.l_g_nh", "-1"),
    ("pattern", "element.design.l_v_nh", "-1"),
    ("pattern", "element.design.r_loss_ohm", "-1"),
    ("pattern", "element.design.line_z0_ohm", "0"),
    ("pattern", "element.design.line_length_deg", "-1"),
    ("pattern", "element.design.l_diode_nh", "-1"),
    ("element-opt", "element.start.c_p_ff", "0"),
    ("element-opt", "element.start.l_g_nh", "-1"),
    ("element-opt", "element.start.r_loss_ohm", "-1"),
    ("element-opt", "element.start.line_z0_ohm", "0"),
    ("element-opt", "element.start.line_length_deg", "-1"),
    ("element-opt", "element.targets.phase_tolerance_deg", "-1"),
    ("element-opt", "element.targets.min_amplitude", "0"),
    ("element-opt", "element.targets.min_amplitude", "1.5"),
    ("element-opt", "element.sweeps.c_p_ff", "[70, 30, 0.5]"),
    ("element-opt", "element.sweeps.c_p_ff", "[30, 70, 0]"),
    ("element-opt", "element.sweeps.c_p_ff", "[30, 70, 0.001]"),
    ("link", "link.d_m", "0"),
    ("link", "link.center_freq_ghz", "0"),
    ("link", "link.center_freq_ghz", "-1"),
    ("link", "link.center_freq_ghz", "10000.01"),
    ("link", "link.center_freq_ghz", "1e300"),
    ("link", "link.bandwidth_mhz", "0"),
    ("link", "link.tx_evm_floor", "0.5"),
    ("link", "link.tx_evm_floor", "-0.01"),
    ("link", "link.modulation", "8PSK"),
    ("dual-stream", "link.dual.d_m", "0"),
    ("dual-stream", "link.dual.center_freq_ghz", "0"),
    ("dual-stream", "link.dual.center_freq_ghz", "-1"),
    ("dual-stream", "link.dual.center_freq_ghz", "1e300"),
    ("rate", "frame.slot_pattern", "XYZ"),
    ("rate", "frame.slot_pattern", "''"),
    ("rate", "frame.s_slot_split", "[10,2]"),
    ("rate", "frame.s_slot_split", "[10, 2, 1]"),
    ("rate", "frame.s_slot_split", "[16, -1, -1]"),
    ("rate", "frame.scs_khz", "100"),
    ("rate", "frame.layers", "-1"),
    ("rate", "frame.overhead", "1"),
    ("rate", "frame.overhead", "-0.01"),
    ("rate", "frame.cc_count", "-1"),
    ("rate", "frame.prb_per_cc", "-1"),
    ("rate", "frame.modulation_order", "-1"),
    ("aclr-sweep", "link.pa.kind", "foo"),
    ("aclr-sweep", "link.pa.saturation_level", "0"),
    ("aclr-sweep", "link.pa.smoothness", "0"),
    # a lattice or a feed so far out of scale that the feed integrals
    # underflow to 0 or overflow to nan
    ("pattern", "array.period_mm", "1e300"),
    ("pattern", "array.period_mm", "1e-300"),
    ("steer", "feed.position_mm", "[0, 0, 1e-300]"),
    ("pattern", "feed.pattern_exponent", "1e300"),
    # a feed pattern steep enough that the illumination's squares underflow
    ("pattern", "feed.pattern_exponent", "1e7"),
    # a lattice period past geometry.MAX_PERIOD_WAVELENGTHS, where the field
    # kernel's phases lose their digits, and a search box so low that the
    # feed-to-element cosines underflow
    ("pattern", "array.period_mm", "1e20"),
    ("steer", "array.period_mm", "1e17"),
    ("feed-opt", "feed.search.z_mm", "[1e-300, 1e-300]"),
    ("feed-opt", "feed.search.z_mm", "[1e-100, 1e-100]"),
    # a search box past feedopt.MAX_SEARCH_EXTENT_MM, where a cell's
    # distances overflow and the feed's pattern is not finite
    ("feed-opt", "feed.search.x_mm", "[-1e300, -1e300]"),
    ("feed-opt", "feed.search.x_mm", "[1e300, 1e300]"),
    ("feed-opt", "feed.search.y_mm", "[-1e300, -1e300]"),
    ("feed-opt", "feed.search.y_mm", "[1e300, 1e300]"),
    ("feed-opt", "feed.search.z_mm", "[1e300, 1e300]"),
    # an incidence roll-off outside geometry.MAX_INCIDENCE_EXPONENT's range,
    # which would empty the aperture or fill it with inf
    ("pattern --pattern.incidence.enabled true", "pattern.incidence.amplitude_exponent",
     "-1e300"),
    ("pattern --pattern.incidence.enabled true", "pattern.incidence.amplitude_exponent",
     "1e300"),
    ("pattern --pattern.incidence.enabled true", "pattern.incidence.amplitude_exponent",
     "1e15"),
    # an incidence phase drift past geometry.MAX_INCIDENCE_PHASE_DRIFT, where
    # the cells' phases are noise
    ("pattern --pattern.incidence.enabled true", "pattern.incidence.beta_deg_per_deg2",
     "1e300"),
    ("pattern --pattern.incidence.enabled true", "pattern.incidence.beta_deg_per_deg2",
     "-1e300"),
    ("pattern --pattern.incidence.enabled true", "pattern.incidence.beta_deg_per_deg2",
     "1e10"),
    # budget terms past link.LINK_DISTANCE_M, MIN_LINK_FREQUENCY_GHZ and
    # MAX_BUDGET_DB, whose ratios 10**(x/10) overflow
    ("link", "link.d_m", "1e300"),
    ("link", "link.tx_power_dbm", "-1e300"),
    ("link", "link.tx_antenna_gain_dbi", "-1e300"),
    ("link", "link.rx_antenna_gain_dbi", "-1e300"),
    ("link", "link.rx_noise_figure_db", "1e300"),
    ("link", "link.rx_noise_figure_db", "1e15"),
    ("dual-stream", "link.dual.d_m", "1e300"),
    ("dual-stream", "link.dual.d_m", "1e-300"),
    ("dual-stream", "link.dual.center_freq_ghz", "1e-300"),
    # a channel wider than link.MAX_BANDWIDTH_MHZ, whose noise power
    # overflows with the noise figure at its bound; link.dual inherits it
    ("link", "link.bandwidth_mhz", "1e300"),
    ("link --link.rx_noise_figure_db 200", "link.bandwidth_mhz", "1e300"),
    ("evm-sweep --link.rx_noise_figure_db 200", "link.bandwidth_mhz", "1e300"),
    ("dual-stream --link.rx_noise_figure_db 200", "link.bandwidth_mhz", "1e300"),
    # a channel narrower than link.MIN_BANDWIDTH_MHZ, whose SNR means nothing
    ("link", "link.bandwidth_mhz", "1e-300"),
    ("link", "link.bandwidth_mhz", "0.00099"),
    ("evm-sweep", "link.bandwidth_mhz", "1e-300"),
    ("dual-stream", "link.bandwidth_mhz", "1e-300"),
]


class TestFailureModes:
    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        rc = main(["rate", "--scenario", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "scenario error" in capsys.readouterr().err

    def test_unparseable_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("frame: [unclosed\n", encoding="utf-8")
        rc = main(["rate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_non_mapping_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.yaml"
        bad.write_text("- 1\n- 2\n", encoding="utf-8")
        rc = main(["rate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "mapping" in capsys.readouterr().err

    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "unknown.yaml"
        bad.write_text("link:\n  bogus: 1\n", encoding="utf-8")
        rc = main(["rate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown key 'link.bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", _BAD_MODEL_VALUES)
    def test_value_the_model_rejects_exits_2(self, command, flag, value, tmp_path,
                                             capsys):
        rc = main([*command.split(), f"--{flag}", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        # the keys the row sets are named, in scenario order, and the keys
        # left at their defaults are not; a literal key is no model's
        keys = {flag} | {t[2:] for t in command.split() if t.startswith("--")} - set(_LITERALS)
        named = ", ".join(dotted for dotted, _ in iter_leaf_paths() if dotted in keys)
        assert f"scenario error: {named}: " in err or f"scenario error: {named} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value", _BAD_LITERAL_VALUES)
    def test_bad_literal_value_exits_2(self, command, flag, value, tmp_path, capsys):
        rc = main([command, f"--{flag}", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"scenario error: {flag} must be" in err
        assert "Traceback" not in err

    def test_every_literal_key_has_a_bad_value(self):
        assert {flag for _, flag, _ in _BAD_LITERAL_VALUES} == set(_LITERALS)

    @pytest.mark.parametrize("overrides, keys", [
        (["--pattern.widebeam.n_subapertures", "33"], "pattern.widebeam.n_subapertures"),
        (["--pattern.widebeam.n_subapertures", "1000"], "pattern.widebeam.n_subapertures"),
        (["--array.n_x", "8", "--pattern.widebeam.n_subapertures", "9"],
         "pattern.widebeam.n_subapertures, array.n_x"),
    ])
    def test_more_subapertures_than_columns_exits_2(self, overrides, keys, tmp_path, capsys):
        # a strip holds at least one column: the automatic count stops at n_x
        rc = main(["widebeam", *overrides, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"scenario error: {keys}: n_subapertures must be in" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["link.pa.smoothness", "link.pa.saturation_level"])
    def test_amplifier_that_passes_no_power_exits_2(self, flag, tmp_path, capsys):
        rc = main(["aclr-sweep", f"--{flag}", "1e-300", "--link.aclr.n_symbols", "2",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        # the key that was set alone, not its sibling left at its default
        assert f"scenario error: {flag}: designated channel carries no power" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        ["--array.n_x", "1", "--array.n_y", "1", "--array.group_size", "1"],
        ["--pattern.frequency_ghz", "0.001"],
    ])
    def test_pattern_whose_lobe_reaches_the_grid_edge_exits_0(self, overrides, tmp_path,
                                                              capsys):
        # no first null along either cut: the lobe is the whole grid
        rc = main(["pattern", *overrides, "--out", str(tmp_path)])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err
        assert read_json(tmp_path, "pattern.json")["sll_db"] is None

    def test_leaves_far_narrower_than_the_beam_exit_2_at_once(self, tmp_path, capsys):
        # 4**9 leaves of 120 / 4**9 deg; building them would take minutes
        started = time.perf_counter()
        rc = main(["train", "--training.n_levels", "9", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error" in err and "training.n_levels" in err
        assert "Traceback" not in err
        assert elapsed < 1.0

    def test_beam_wider_than_the_codebook_names_the_array_keys_set(self, tmp_path, capsys):
        # a 2x2 array's 59 deg beam is far wider than the default codebook's
        # leaves: the array keys set are named, not the training keys left alone
        rc = main(["train", "--array.n_x", "2", "--array.n_y", "2", "--array.group_size", "1",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error: array.n_x, array.n_y, array.group_size: 3 levels of 4" in err
        assert "training" not in err and "Traceback" not in err

    @pytest.mark.parametrize("n_levels", ["3", "4"])
    def test_leaf_bound_admits_the_default_and_four_levels(self, n_levels, tmp_path,
                                                           monkeypatch):
        class Reached(Exception):
            pass

        def synthesize_wide_beam(*args, **kwargs):
            raise Reached

        # build_codebook checks its leaves before it synthesizes a beam
        monkeypatch.setattr(synthesis, "synthesize_wide_beam", synthesize_wide_beam)
        with pytest.raises(Reached):
            main(["train", "--training.n_levels", n_levels, "--out", str(tmp_path)])

    def test_grid_step_past_the_bound_exits_2_without_a_grid(self, tmp_path, capsys,
                                                             monkeypatch):
        # 0.001 deg would be 180001^2 directions; the literal check stops it
        def direction_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(pattern, "direction_grid", direction_grid)
        started = time.perf_counter()
        rc = main(["pattern", "--pattern.step_deg", "0.001", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error" in err and "pattern.step_deg" in err
        assert "Traceback" not in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("step", [DEFAULT_GRID_STEP_DEG, 1.0, MIN_GRID_STEP_DEG, 90.0])
    def test_grid_step_bound_admits_steps_down_to_the_minimum(self, step):
        scn = resolve_scenario(None, [("pattern.step_deg", step)])
        assert scn.literal("pattern.step_deg") == step

    def test_coarsest_grid_step_runs(self, tmp_path):
        # 90 deg is the grid -90, 0, 90: the peak is broadside, under the
        # aperture bound, and the lobe fills the grid
        with pytest.warns(UserWarning, match="undersample"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["pattern", "--pattern.step_deg", "90", "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path, "pattern.json")
        asm = resolve_scenario(None).build_assembly()
        assert report["peak_direction"] == {"az_deg": 0.0, "el_deg": 0.0}
        assert report["peak_gain_dbi"] < pattern.directivity_upper_bound(
            asm.array.aperture_m2, asm.frequency_ghz)
        assert report["sll_db"] is None

    @pytest.mark.parametrize("command, flag, limit, measure", [
        ("aclr-sweep", "link.aclr.n_symbols", MAX_ACLR_SYMBOLS, "measure_aclr"),
        ("link", "link.evm_symbols", MAX_EVM_SYMBOLS, "simulate_evm"),
        # the codebook comes before the trials' seed sequences are spawned
        ("train", "training.n_trials", MAX_TRAINING_TRIALS, "build_codebook"),
    ])
    def test_record_past_the_bound_exits_2_without_a_record(self, command, flag, limit,
                                                            measure, tmp_path, capsys,
                                                            monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("record built")

        monkeypatch.setattr(cli, measure, unreachable)
        rc = main([command, f"--{flag}", str(limit + 1), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error" in err and flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, limit", [
        ("link.aclr.n_symbols", MAX_ACLR_SYMBOLS),
        ("link.evm_symbols", MAX_EVM_SYMBOLS),
        ("training.n_trials", MAX_TRAINING_TRIALS),
    ])
    def test_record_bound_admits_its_limit(self, flag, limit):
        assert resolve_scenario(None, [(flag, limit)]).literal(flag) == limit

    def test_period_and_search_height_bounds_admit_their_limits(self):
        period = geometry.MAX_PERIOD_WAVELENGTHS * wavelength_mm(26.0)
        scn = resolve_scenario(None, [("array.period_mm", period),
                                      ("feed.search.z_mm", [MIN_SEARCH_HEIGHT_MM, 1.0])])
        assert scn.build_assembly().array.period_mm == period
        assert scn.build_feed_space().z_mm[0] == MIN_SEARCH_HEIGHT_MM
        with pytest.raises(ValueError, match="wavelengths"):
            geometry.AntennaAssembly(array=geometry.RisArray(
                period_mm=math.nextafter(period, math.inf)))

    @pytest.mark.parametrize("flag, value, parameter", [
        ("element.start.l_g_nh", "0", "l_g_nh"),
        ("element.start.l_v_nh", "0", "l_v_nh"),
        ("element.diode.l_diode_nh", "0", "l_diode_nh"),
        ("element.sweeps.c_p_ff", "[60, 70, 0.5]", "c_p_ff"),
    ])
    def test_start_value_outside_its_sweep_exits_2(self, flag, value, parameter,
                                                   tmp_path, capsys):
        rc = main(["element-opt", f"--{flag}", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        # the key that was set is named, not the sections it might lie in
        assert f"scenario error: {flag}: sweep range for {parameter}" in err
        assert "Traceback" not in err

    def test_sweep_reaching_an_invalid_circuit_exits_2_naming_it(self, tmp_path, capsys,
                                                                monkeypatch):
        # the start value 45 fF lies inside, but the sweep's low end 0 fF
        # is no capacitor; caught before the first round evaluates anything
        def no_rounds(*args, **kwargs):
            raise AssertionError("round evaluated")

        monkeypatch.setattr(element, "state_metrics", no_rounds)
        rc = main(["element-opt", "--element.sweeps.c_p_ff", "[0, 70, 0.5]",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error: element.sweeps.c_p_ff: sweep range for c_p_ff" in err
        assert "patch capacitance must be positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value, model, grid", [
        # 4e10 sweep points; 4e10 feed cells at ~0.5 ms each
        ("element-opt", "element.sweeps.c_p_ff", "[30, 70, 1e-9]", SweepRange, "grid"),
        ("feed-opt", "feed.search.coarse_step_mm", "0.001", FeedSearchSpace, "axis_grid"),
        # a 100000-column lattice; its grouping is the first array built
        ("pattern", "array.n_x", "100000", geometry, "group_map"),
    ])
    def test_grid_past_its_work_bound_exits_2_without_a_grid(
            self, command, flag, value, model, grid, tmp_path, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(model, grid, no_grid)
        started = time.perf_counter()
        rc = main([command, f"--{flag}", value, "--out", str(tmp_path)])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error" in err and flag in err
        assert "Traceback" not in err
        assert elapsed < 1.0

    def test_steep_feed_over_a_low_box_exits_2_naming_both_keys(self, tmp_path, capsys):
        # the search height passes its bound, but cos^100 of the angles from
        # a feed 1e-3 mm over the centre to the elements underflows to 0
        rc = main(["feed-opt", "--feed.pattern_exponent", "200",
                   "--feed.search.z_mm", "[1e-3, 1e-3]", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario error: feed.pattern_exponent, feed.search.z_mm: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, keys, message", [
        # a cell of the default box whose amplitudes all square to 0: its
        # taper would be 0 / 0; the box is the default one
        (["--feed.pattern_exponent", "1e6"], "feed.pattern_exponent",
         "amplitude sums must be positive and finite"),
        # the one cell passes the coarse scan; the refinement's -80 mm offset
        # from x = 40 mm is oblique enough that cos^50 of every element's
        # angle underflows
        (["--feed.pattern_exponent", "100", "--feed.search.x_mm", "[40, 40]",
          "--feed.search.z_mm", "[1e-3, 1e-3]"],
         "feed.pattern_exponent, feed.search.x_mm, feed.search.z_mm",
         "illumination power must be positive"),
    ])
    def test_feed_that_lights_no_element_exits_2_naming_the_keys_set(
            self, argv, keys, message, tmp_path, capsys):
        rc = main(["feed-opt", *argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"scenario error: {keys}: {message}" in err
        assert "Traceback" not in err

    def test_search_box_out_to_1e300_mm_exits_2_naming_its_keys(self, tmp_path, capsys):
        # three cells along y, two of them 1e300 mm out
        rc = main(["feed-opt", "--feed.search.y_mm", "[-1e300, 1e300]",
                   "--feed.search.coarse_step_mm", "1e300", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert ("scenario error: feed.search.y_mm, feed.search.coarse_step_mm: feed search "
                "must stay within") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("corner", [-MAX_SEARCH_EXTENT_MM, MAX_SEARCH_EXTENT_MM])
    def test_search_extent_bound_admits_its_limit(self, corner, tmp_path):
        with pytest.raises(ValueError, match="within"):
            FeedSearchSpace(z_mm=(80.0, math.nextafter(MAX_SEARCH_EXTENT_MM, math.inf)))
        # a box of one cell at a corner of the bound, and its refinement, run clean
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["feed-opt", "--feed.search.x_mm", f"[{corner}, {corner}]",
                         "--feed.search.y_mm", f"[{corner}, {corner}]",
                         "--feed.search.z_mm", f"[{MAX_SEARCH_EXTENT_MM}, "
                         f"{MAX_SEARCH_EXTENT_MM}]", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path, "feed_opt.json")["coarse_position_mm"] == [
            corner, corner, MAX_SEARCH_EXTENT_MM]

    @pytest.mark.parametrize("value", ["-100", "100"])
    @pytest.mark.parametrize("command, flags", [
        ("train", ["training.pilot_snr_db"]),
        ("train", ["training.accept_threshold_db"]),
        ("dual-stream", ["link.stream_gains_dbi.h", "link.stream_gains_dbi.v"]),
    ])
    def test_db_bounds_admit_their_limits(self, command, flags, value, tmp_path):
        # the ratios stay finite: no RuntimeWarning, which the suite makes an error
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(command, tmp_path, *[a for f in flags for a in (f"--{f}", value)]) == 0

    @pytest.mark.parametrize("command", ["link", "evm-sweep", "dual-stream"])
    @pytest.mark.parametrize("d_m, ghz, db, nf, mhz", [
        ("1e9", "1e4", "-200", "200", "1e4"),      # the weakest budget in range
        ("1e-3", "1e-3", "200", "0", "1e-3"),      # and the strongest
    ])
    def test_budget_bounds_admit_their_limits(self, command, d_m, ghz, db, nf, mhz, tmp_path):
        # every ratio stays finite: no RuntimeWarning, which the suite makes an error
        flags = {"link.d_m": d_m, "link.dual.d_m": d_m, "link.sweep_distances_m": f"[{d_m}]",
                 "link.center_freq_ghz": ghz, "link.dual.center_freq_ghz": ghz,
                 "link.tx_power_dbm": db, "link.tx_antenna_gain_dbi": db,
                 "link.rx_antenna_gain_dbi": db, "link.rx_noise_figure_db": nf,
                 "link.bandwidth_mhz": mhz}
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(command, tmp_path, *[a for f, v in flags.items()
                                                for a in (f"--{f}", v)]) == 0

    def test_steer_without_targets_exits_2(self, tmp_path, capsys):
        rc = main(["steer", "--pattern.scan_az_deg", "[]", "--pattern.scan_el_deg", "[]",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "pattern.scan_az_deg" in err and "Traceback" not in err


# The cheapest run that reads each scenario leaf, as (dotted prefix,
# arguments); the first matching prefix wins.  The leaf's own flag comes
# after the arguments, so it overrides them.
_PATTERN_RUN = ("pattern", "--pattern.step_deg", "2")
_CHEAPEST_READER = (
    ("element.design.", _PATTERN_RUN),
    ("element.", ("element-opt", "--element.max_rounds", "1")),
    ("array.", ("geometry",)),
    ("feed.search.", ("feed-opt", *FAST_ARGS["feed-opt"])),
    ("feed.", _PATTERN_RUN),
    ("pattern.scan_", ("steer", "--pattern.scan_az_deg", "[0.0]",
                       "--pattern.scan_el_deg", "[10.0]")),
    ("pattern.widebeam.", ("widebeam",)),
    ("pattern.incidence.", (*_PATTERN_RUN, "--pattern.incidence.enabled", "true")),
    ("pattern.", _PATTERN_RUN),
    ("link.sweep_distances_m", ("evm-sweep",)),
    ("link.pa.", ("aclr-sweep", "--link.aclr.n_symbols", "2")),
    ("link.aclr.", ("aclr-sweep", "--link.aclr.n_symbols", "2")),
    ("link.stream_gains_dbi.", ("dual-stream",)),
    ("link.xpd_db.", ("dual-stream",)),
    ("link.dual.", ("dual-stream",)),
    ("link.", ("link", "--link.evm_symbols", "100")),
    ("frame.", ("rate",)),
    ("training.", ("train", "--training.n_trials", "2")),
    ("rng_seed", ("rate",)),
)


@settings(max_examples=50, deadline=None)
@given(leaf=st.sampled_from([leaf for leaf, _ in iter_leaf_paths()]),
       value=st.sampled_from(["foo", "-1", "0", "[]", "true"]))
@example(leaf="element.start.l_g_nh", value="0")
@example(leaf="element.start.l_v_nh", value="0")
@example(leaf="element.diode.l_diode_nh", value="0")
@example(leaf="element.sweeps.c_p_ff", value="[60, 70, 0.5]")
@example(leaf="link.center_freq_ghz", value="0")
@example(leaf="link.center_freq_ghz", value="-1")
@example(leaf="link.dual.center_freq_ghz", value="0")
@example(leaf="link.dual.center_freq_ghz", value="-1")
@example(leaf="link.pa.smoothness", value="1e-300")
@example(leaf="link.pa.saturation_level", value="1e-300")
def test_any_leaf_with_a_small_bad_value_exits_0_or_2(leaf, value):
    args = next(run for prefix, run in _CHEAPEST_READER if leaf.startswith(prefix))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main([*args, f"--{leaf}", value, "--out", out])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Extreme finite values of a float: huge and tiny of either sign, and 1e15,
# where a dB value's ratio 10**(x/10) overflows
_EXTREMES = ("1e300", "-1e300", "1e-300", "-1e-300", "1e15")
# Extreme integers: past every work bound, past int32, past int64 on either
# side, and past the integers a float holds exactly
_INT_EXTREMES = ("1000000", str(2 ** 31), str(2 ** 63), str(-2 ** 63 - 1), str(10 ** 23))
# Two-element lists whose ends lie 300 decades apart, for a list leaf of any length
_LIST_EXTREMES = ("[0, 1e300]", "[1e300, 0]", "[1e-300, 1e300]")


def _extreme_overrides(full: bool) -> list[tuple[str, str]]:
    """(leaf, value) at each of _EXTREMES for every float leaf and each
    element of every float-list leaf, the other elements at their defaults;
    at each of _INT_EXTREMES for every integer leaf and each element of
    ``frame.s_slot_split``; and at each of _LIST_EXTREMES for every numeric
    list leaf of two or more elements.  All of a slot's values if ``full``,
    else one of them, taken in turn."""
    floats, ints, lists = [], [], []
    for leaf, default in iter_leaf_paths():
        if type(default) is float:
            floats.append((leaf, "{}", _EXTREMES))
        elif type(default) is int or _LITERALS.get(leaf, (None,))[0] == int | None:
            ints.append((leaf, "{}", _INT_EXTREMES))
        elif isinstance(default, list) and default and all(type(v) in (float, int)
                                                            for v in default):
            for i in range(len(default)):
                cells = [repr(v) for v in default]
                cells[i] = "{}"
                slot = (leaf, f"[{', '.join(cells)}]")
                if type(default[i]) is float:
                    floats.append((*slot, _EXTREMES))
                else:
                    ints.append((*slot, _INT_EXTREMES))
            if len(default) >= 2:
                lists.append((leaf, "{}", _LIST_EXTREMES))
    return [(leaf, form.format(value))
            for k, (leaf, form, values) in enumerate(floats + ints + lists)
            for value in (values if full else [values[k % len(values)]])]


def pytest_generate_tests(metafunc):
    # the whole product (698 runs) with --full-extreme-sweep, as CI runs it
    if metafunc.function.__name__ == "test_numeric_leaf_at_an_extreme_exits_0_or_2":
        full = metafunc.config.getoption("--full-extreme-sweep")
        metafunc.parametrize("leaf, value", _extreme_overrides(full))


def test_numeric_leaf_at_an_extreme_exits_0_or_2(leaf, value):
    args = next(run for prefix, run in _CHEAPEST_READER if leaf.startswith(prefix))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*args, f"--{leaf}", value, "--out", out])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
