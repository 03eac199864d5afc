"""Batch command-line front-end.

Every subcommand loads one scenario file (all keys optional; an empty
or absent file runs the prototype defaults), executes one module, and
writes CSV/JSON artifacts plus a run manifest into the output
directory.  Artifacts are deterministic: identical scenario and seed
produce byte-identical CSV files.

Every scenario leaf is also a flag, ``--dotted.leaf VALUE`` or
``--dotted.leaf=VALUE`` with a YAML value; one argv scan collects these
overrides in order, and argparse parses the rest.

Exit codes: 0 success, 2 configuration error, 3 computational failure
(currently: element-opt quality targets missed under --strict).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import yaml

from . import __version__
from .element import SweepRangeError, optimize_structure
from .feedopt import aperture_efficiency, coarse_optimize_feed, refine_feed
from .geometry import Direction
from .link import (
    EVM_LIMIT,
    ACLR_LIMIT_DBC,
    PRB_TABLE_120KHZ,
    WaveformConfig,
    dl_duty,
    dual_stream_sinr,
    evm_closed_form,
    evm_vs_distance,
    link_budget,
    measure_aclr,
    peak_rate_3gpp,
    simulate_evm,
)
from .pattern import far_field, pattern_metrics, steering_row
from .scenario import ScenarioError, Scenario, iter_leaf_paths, load_scenario
from .synthesis import (
    beam_training,
    build_codebook,
    scan_evaluation,
    synthesize_codeword,
    synthesize_wide_beam,
)

OUTPUT_DIR_ENV = "RISANT_OUTPUT_DIR"


class ComputationError(Exception):
    """A run completed structurally but missed a required quality target."""


# ---------------------------------------------------------------------------
# deterministic artifact writers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


# %-conversions of the cell types the writers see most, giving what _fmt
# gives without its isinstance chain; every other type goes in as %s of _fmt
_CONVERSION = {float: "%.10g", np.float64: "%.10g", int: "%d"}


def _row_format(types):
    """(%-template of a CSV line, indices of the cells that go through
    _fmt) for rows of the cell ``types``."""
    conversions = [_CONVERSION.get(t) for t in types]
    template = ",".join(c or "%s" for c in conversions) + "\n"
    return template, [i for i, c in enumerate(conversions) if c is None]


def write_csv(path: str, header, rows) -> str:
    formats = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = tuple(row)
            types = tuple(map(type, cells))
            if types not in formats:
                formats[types] = _row_format(types)
            template, slow = formats[types]
            if slow:
                cells = tuple(_fmt(v) if i in slow else v for i, v in enumerate(cells))
            fh.write(template % cells)
    return path


def write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(value):
    """numpy scalars and arrays as the Python values they hold."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (output paths, summary line)


def cmd_element_opt(scn: Scenario, out: str, strict: bool = False) -> tuple[list[str], str]:
    section = scn.section("element")
    freq = scn.literal("pattern.frequency_ghz")
    try:
        result = optimize_structure(scn.build_start_circuit(), frequency_ghz=freq,
                                    targets=scn.build_targets(), sweeps=scn.build_sweeps(),
                                    max_rounds=scn.literal("element.max_rounds"))
    except SweepRangeError as exc:
        raise ScenarioError(f"element.sweeps.{exc.parameter}: {exc}") from None
    except ValueError as exc:   # a sweep misses its start value
        raise ScenarioError(f"element.sweeps, element.start or element.diode: {exc}") from None
    c = result.circuit
    payload = {
        "frequency_ghz": freq,
        # the tuned values under the scenario's circuit keys
        "circuit": {**{key: getattr(c, key) for key in section["start"]},
                    "diode_l_nh": c.diode.l_diode_nh},
        "amp_on": result.amp_on, "amp_off": result.amp_off,
        "phase_diff_deg": result.phase_diff_deg,
        "objective": result.objective,
        "rounds_used": result.rounds_used,
        "targets_met": result.targets_met,
    }
    outputs = [write_json(os.path.join(out, "element_opt.json"), payload)]
    if result.trace:
        outputs.append(write_csv(
            os.path.join(out, "element_trace.csv"),
            ["round", "parameter", "value", "amp_on", "amp_off",
             "phase_diff_deg", "objective"],
            result.trace))
    if strict and not result.targets_met:
        raise ComputationError(
            f"element targets unmet: amp_on {result.amp_on:.4f}, "
            f"amp_off {result.amp_off:.4f}, phase diff {result.phase_diff_deg:.2f} deg")
    return outputs, (f"element-opt: |G_on| {result.amp_on:.4f} |G_off| "
                     f"{result.amp_off:.4f} dphi {result.phase_diff_deg:.2f} deg "
                     f"targets_met={result.targets_met}")


def cmd_pattern(scn: Scenario, out: str) -> tuple[list[str], str]:
    asm = scn.build_assembly()
    target = scn.build_target_direction()
    cw = synthesize_codeword(asm, target, scn.literal("pattern.compensate_incidence"))
    step = scn.literal("pattern.step_deg")
    metrics = pattern_metrics(asm, cw, step)
    outputs = [
        write_json(os.path.join(out, "pattern.json"), {
            "target": {"az_deg": target.az_deg, "el_deg": target.el_deg},
            "peak_gain_dbi": metrics.peak_gain_dbi,
            "peak_direction": {"az_deg": metrics.peak_direction.az_deg,
                               "el_deg": metrics.peak_direction.el_deg},
            "sll_db": metrics.sll_db,
            "hpbw_az_deg": metrics.hpbw_az_deg,
            "hpbw_el_deg": metrics.hpbw_el_deg,
            "cross_pol_db": metrics.cross_pol_db,
            "grid_step_deg": step,
        }),
        write_csv(os.path.join(out, "pattern_cut_az.csv"),
                  ["az_deg", "gain_dbi"], zip(metrics.az_deg, metrics.az_cut_dbi)),
        write_csv(os.path.join(out, "pattern_cut_el.csv"),
                  ["el_deg", "gain_dbi"], zip(metrics.el_deg, metrics.el_cut_dbi)),
    ]
    sll = "n/a" if metrics.sll_db is None else f"{metrics.sll_db:.2f}"
    return outputs, (f"pattern: peak {metrics.peak_gain_dbi:.2f} dBi at "
                     f"({metrics.peak_direction.az_deg:.2f}, "
                     f"{metrics.peak_direction.el_deg:.2f}) deg, SLL {sll} dB")


def cmd_steer(scn: Scenario, out: str) -> tuple[list[str], str]:
    asm = scn.build_assembly()
    targets = [Direction(a, 0.0) for a in scn.literal("pattern.scan_az_deg")]
    targets += [Direction(0.0, e) for e in scn.literal("pattern.scan_el_deg")]
    if not targets:
        raise ScenarioError("pattern.scan_az_deg and pattern.scan_el_deg are both empty")
    points = scan_evaluation(asm, targets, scn.literal("pattern.compensate_incidence"))
    rows = [(pt.target.az_deg, pt.target.el_deg, pt.gain_dbi,
             pt.pointing_error_deg, pt.loss_vs_broadside_db) for pt in points]
    outputs = [
        write_csv(os.path.join(out, "steer.csv"),
                  ["az_deg", "el_deg", "gain_dbi", "pointing_error_deg",
                   "loss_vs_broadside_db"], rows),
        write_json(os.path.join(out, "steer.json"), {
            "n_directions": len(rows),
            "max_pointing_error_deg": max(r[3] for r in rows),
            "max_loss_vs_broadside_db": max(r[4] for r in rows),
        }),
    ]
    return outputs, (f"steer: {len(rows)} directions, worst pointing error "
                     f"{max(r[3] for r in rows):.2f} deg")


def cmd_widebeam(scn: Scenario, out: str) -> tuple[list[str], str]:
    asm = scn.build_assembly()
    sector = scn.literal("pattern.widebeam.sector_az_deg")
    el = scn.literal("pattern.widebeam.el_deg")
    try:
        result = synthesize_wide_beam(
            asm, sector, el_deg=el,
            n_subapertures=scn.literal("pattern.widebeam.n_subapertures"))
    except ValueError as exc:   # the scenario checks the sector and the elevation
        raise ScenarioError(f"pattern.widebeam.n_subapertures: {exc}") from None
    az = np.arange(sector[0] - 10.0, sector[1] + 10.0 + 1e-9, 0.25)
    pat = far_field(asm, result.codeword, az, np.array([el]))
    gain = pat.gain_dbi()[0]
    outputs = [
        write_json(os.path.join(out, "widebeam.json"), {
            "sector_az_deg": list(sector), "el_deg": el,
            "n_subapertures": result.n_subapertures,
            "ripple_db": result.ripple_db,
            "note": result.note,
        }),
        write_csv(os.path.join(out, "widebeam_cut.csv"), ["az_deg", "gain_dbi"],
                  zip(az, gain)),
        write_csv(os.path.join(out, "widebeam_states.csv"), ["group", "state"],
                  enumerate(np.asarray(result.codeword.states, dtype=int))),
    ]
    return outputs, (f"widebeam: {result.n_subapertures} subapertures, ripple "
                     f"{result.ripple_db:.2f} dB over [{sector[0]}, {sector[1]}] deg")


def cmd_feed_opt(scn: Scenario, out: str) -> tuple[list[str], str]:
    asm = scn.build_assembly()
    coarse = coarse_optimize_feed(asm, scn.build_feed_space())
    refined = refine_feed(asm, coarse.position_mm)
    nominal = aperture_efficiency(asm)
    refined_breakdown = aperture_efficiency(
        replace(asm, feed=replace(asm.feed, position_mm=refined.position_mm)))
    payload = {
        "nominal_position_mm": list(asm.feed.position_mm),
        "nominal_predicted_gain_dbi": nominal.predicted_gain_dbi,
        "coarse_position_mm": list(coarse.position_mm),
        "coarse_predicted_gain_dbi": coarse.predicted_gain_dbi,
        "refined_position_mm": list(refined.position_mm),
        "refined_realized_gain_dbi": refined.realized_gain_dbi,
        "refined_predicted_gain_dbi": refined_breakdown.predicted_gain_dbi,
        "eta_spillover": refined_breakdown.eta_spillover,
        "eta_illumination": refined_breakdown.eta_illumination,
    }
    outputs = [
        write_json(os.path.join(out, "feed_opt.json"), payload),
        write_csv(os.path.join(out, "feed_scan.csv"),
                  ["x_mm", "y_mm", "z_mm", "eta_spillover", "eta_illumination",
                   "predicted_gain_dbi"], coarse.evaluations),
        write_csv(os.path.join(out, "feed_refine.csv"),
                  ["dx_mm", "dy_mm", "dz_mm", "realized_gain_dbi"], refined.evaluations),
    ]
    x, y, z = refined.position_mm
    return outputs, (f"feed-opt: refined ({x:.1f}, {y:.1f}, {z:.1f}) mm, "
                     f"{refined.realized_gain_dbi:.2f} dBi realized")


def cmd_link(scn: Scenario, out: str) -> tuple[list[str], str]:
    ls = scn.build_link()
    snr = link_budget(ls)
    evm_cf = evm_closed_form(snr, ls.tx_evm_floor)
    evm_mc = simulate_evm(snr, ls.tx_evm_floor, ls.modulation,
                          scn.literal("link.evm_symbols"), scn.rng_seed)
    payload = {
        "d_m": ls.d_m, "center_freq_ghz": ls.center_freq_ghz,
        "bandwidth_mhz": ls.bandwidth_mhz, "modulation": ls.modulation,
        "snr_db": snr,
        "evm_closed_form_pct": 100.0 * evm_cf,
        "evm_simulated_pct": 100.0 * evm_mc,
        "evm_limit_pct": 100.0 * EVM_LIMIT,
        "pass_evm": evm_cf <= EVM_LIMIT,
    }
    outputs = [write_json(os.path.join(out, "link.json"), payload)]
    return outputs, (f"link: snr {snr:.2f} dB, EVM {100 * evm_cf:.2f}% "
                     f"(simulated {100 * evm_mc:.2f}%)")


def cmd_evm_sweep(scn: Scenario, out: str) -> tuple[list[str], str]:
    rows = evm_vs_distance(scn.build_link(), scn.literal("link.sweep_distances_m"))
    outputs = [
        write_csv(os.path.join(out, "evm_sweep.csv"),
                  ["d_m", "snr_db", "evm_pct", "pass_8pct"], rows),
        write_json(os.path.join(out, "evm_sweep.json"), {
            "n_points": len(rows),
            "all_pass": all(r[3] for r in rows),
            "worst_evm_pct": max(r[2] for r in rows),
        }),
    ]
    return outputs, (f"evm-sweep: {len(rows)} distances, worst EVM "
                     f"{max(r[2] for r in rows):.2f}%, all_pass="
                     f"{all(r[3] for r in rows)}")


def cmd_aclr_sweep(scn: Scenario, out: str) -> tuple[list[str], str]:
    pa = scn.build_pa()
    bw_mhz = scn.literal("link.aclr.channel_bandwidth_mhz")
    waveform = WaveformConfig(occupied_subcarriers=12 * PRB_TABLE_120KHZ[round(bw_mhz)])
    try:
        values = measure_aclr(pa, waveform, scn.literal("link.aclr.n_symbols"), scn.rng_seed,
                              channel_bandwidth_hz=bw_mhz * 1e6)
    except ValueError as exc:   # the amplifier drives every sample to 0
        raise ScenarioError(f"link.pa.saturation_level or link.pa.smoothness: {exc}") from None
    # the amplifier operating point is independent of carrier and beam
    # direction here, so the measured leakage repeats across the sweep
    rows = [(center, aod, values[0], values[1], max(values) <= ACLR_LIMIT_DBC)
            for center in scn.literal("link.aclr.centers_ghz")
            for aod in scn.literal("link.aclr.aod_az_deg")]
    outputs = [
        write_csv(os.path.join(out, "aclr_sweep.csv"),
                  ["center_freq_ghz", "aod_az_deg", "aclr_lower_dbc",
                   "aclr_upper_dbc", "pass_28dbc"], rows),
        write_json(os.path.join(out, "aclr_sweep.json"), {
            "pa": asdict(pa),
            "channel_bandwidth_mhz": bw_mhz,
            "aclr_lower_dbc": values[0],
            "aclr_upper_dbc": values[1],
            "limit_dbc": ACLR_LIMIT_DBC,
            "all_pass": max(values) <= ACLR_LIMIT_DBC,
        }),
    ]
    return outputs, (f"aclr-sweep: {values[0]:.1f} / {values[1]:.1f} dBc "
                     f"({pa.kind} PA), all_pass={max(values) <= ACLR_LIMIT_DBC}")


def cmd_dual_stream(scn: Scenario, out: str) -> tuple[list[str], str]:
    ls = scn.build_link(dual=True)
    gains = {pol: scn.literal(f"link.stream_gains_dbi.{pol}") for pol in ("h", "v")}
    xpd = scn.build_xpd()
    sinr = dual_stream_sinr(gains, xpd, ls)
    rows = [("H", gains["h"], xpd.h_antenna_db, sinr.h_db),
            ("V", gains["v"], xpd.v_antenna_db, sinr.v_db)]
    outputs = [
        write_csv(os.path.join(out, "dual_stream.csv"),
                  ["stream", "gain_dbi", "leakage_db", "sinr_db"], rows),
        write_json(os.path.join(out, "dual_stream.json"), {
            "d_m": ls.d_m, "center_freq_ghz": ls.center_freq_ghz,
            "sinr_h_db": sinr.h_db, "sinr_v_db": sinr.v_db,
        }),
    ]
    return outputs, f"dual-stream: SINR H {sinr.h_db:.2f} dB, V {sinr.v_db:.2f} dB"


def cmd_rate(scn: Scenario, out: str) -> tuple[list[str], str]:
    frame = scn.build_frame()
    rate = peak_rate_3gpp(frame)
    payload = {
        "rate_bps": rate,
        "rate_gbps": rate / 1e9,
        "dl_duty": dl_duty(frame),
        "frame": asdict(frame),
    }
    outputs = [write_json(os.path.join(out, "rate.json"), payload)]
    return outputs, f"rate: {rate / 1e9:.4f} Gbps (duty {dl_duty(frame):.4f})"


def cmd_train(scn: Scenario, out: str) -> tuple[list[str], str]:
    asm = scn.build_assembly()
    sector = scn.literal("training.sector_az_deg")
    el = scn.literal("training.el_deg")
    try:
        codebook = build_codebook(asm, sector_az=sector,
                                  n_levels=scn.literal("training.n_levels"),
                                  branching=scn.literal("training.branching"), el_deg=el)
    except ValueError as exc:
        raise ScenarioError(f"training.n_levels (with training.branching): {exc}") from None
    n_trials = scn.literal("training.n_trials")
    snr = scn.literal("training.pilot_snr_db")
    threshold = scn.literal("training.accept_threshold_db")
    seed_root = np.random.SeedSequence(scn.rng_seed)
    rows = []
    for trial, seq in enumerate(seed_root.spawn(n_trials)):
        truth_seq, noise_seq = seq.spawn(2)
        truth_rng = np.random.default_rng(truth_seq)
        truth = Direction(float(truth_rng.uniform(sector[0], sector[1])), el)
        row = steering_row(asm, truth)
        # paired arms share the truth's row and the noise stream: identical
        # pilot noise up to the point where the widened search spends
        # extra measurements
        widened = beam_training(asm, codebook, truth, pilot_snr_db=snr,
                                widening=True, accept_threshold_db=threshold,
                                rng=np.random.default_rng(noise_seq), row=row)
        baseline = beam_training(asm, codebook, truth, pilot_snr_db=snr,
                                 widening=False, accept_threshold_db=threshold,
                                 rng=np.random.default_rng(noise_seq), row=row)
        rows.append((trial, truth.az_deg, widened.success, baseline.success,
                     widened.pilots_used, baseline.pilots_used,
                     widened.widenings))
    rate_w = sum(r[2] for r in rows) / n_trials
    rate_b = sum(r[3] for r in rows) / n_trials
    outputs = [
        write_csv(os.path.join(out, "train.csv"),
                  ["trial", "truth_az_deg", "success_widened", "success_baseline",
                   "pilots_widened", "pilots_baseline", "widenings"], rows),
        write_json(os.path.join(out, "train.json"), {
            "n_trials": n_trials,
            "pilot_snr_db": snr,
            "success_rate_widened": rate_w,
            "success_rate_baseline": rate_b,
            "mean_pilots_widened": sum(r[4] for r in rows) / n_trials,
            "mean_pilots_baseline": sum(r[5] for r in rows) / n_trials,
        }),
    ]
    return outputs, (f"train: success {rate_w:.3f} widened vs {rate_b:.3f} "
                     f"baseline over {n_trials} trials")


def cmd_geometry(scn: Scenario, out: str) -> tuple[list[str], str]:
    array = scn.build_array()
    positions = array.positions_mm()
    rows = [(i, int(array.grouping[i]), positions[i, 0], positions[i, 1],
             positions[i, 2]) for i in range(array.n_elements)]
    outputs = [
        write_csv(os.path.join(out, "geometry.csv"),
                  ["index", "group", "x_mm", "y_mm", "z_mm"], rows),
        write_json(os.path.join(out, "geometry.json"), {
            "n_elements": array.n_elements,
            "n_groups": array.n_groups,
            "aperture_m2": array.aperture_m2,
            "extent_x_mm": [float(positions[:, 0].min()), float(positions[:, 0].max())],
            "extent_y_mm": [float(positions[:, 1].min()), float(positions[:, 1].max())],
        }),
    ]
    return outputs, (f"geometry: {array.n_elements} elements in "
                     f"{array.n_groups} groups")


COMMANDS = {
    "element-opt": cmd_element_opt,
    "pattern": cmd_pattern,
    "steer": cmd_steer,
    "widebeam": cmd_widebeam,
    "feed-opt": cmd_feed_opt,
    "link": cmd_link,
    "evm-sweep": cmd_evm_sweep,
    "aclr-sweep": cmd_aclr_sweep,
    "dual-stream": cmd_dual_stream,
    "rate": cmd_rate,
    "train": cmd_train,
    "geometry": cmd_geometry,
}

SUBCOMMANDS = tuple(COMMANDS)


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Takes each of its ``leaf_flags``, as ``--k v`` or ``--k=v``, out of
    argv as an override, its value parsed as YAML: ``v`` is the next token
    unless that is a long flag, so -1.5e1 too.  A bare ``--`` ends them."""

    def parse_known_args(self, args=None, namespace=None):
        tokens = iter(sys.argv[1:] if args is None else args)
        rest, overrides = [], []
        for token in tokens:
            flag, eq, value = token.partition("=")
            if flag not in self.leaf_flags:
                rest += [token, *tokens] if token == "--" else [token]
            elif not eq and (value := next(tokens, "--")).startswith("--"):
                self.error(f"argument {flag}: expected one argument")
            else:
                try:
                    overrides.append((flag[2:], yaml.safe_load(value)))
                except yaml.YAMLError as exc:
                    self.error(f"cannot parse value for {flag}: {exc}")
        namespace, extras = super().parse_known_args(rest, namespace)
        namespace.overrides = overrides
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="risant", allow_abbrev=False,
        description="One-bit reflectarray antenna and link simulator.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=SUBCOMMANDS, help="pipeline to run")
    parser.add_argument("--scenario", metavar="FILE", default=None,
                        help="YAML scenario file (omitted = prototype defaults)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help=f"output directory (default ${OUTPUT_DIR_ENV} or cwd)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario rng_seed")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when quality targets are missed")
    parser.leaf_flags = frozenset(f"--{dotted}" for dotted, _ in iter_leaf_paths())
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses: no parse changes it."""
    return build_parser()


def _resolve_out_dir(args) -> str:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or os.getcwd()
    os.makedirs(out, exist_ok=True)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is not None:   # after every leaf flag: each parse makes a new list
        args.overrides.append(("rng_seed", args.seed))
    try:
        scn = load_scenario(args.scenario, args.overrides)
        out_dir = _resolve_out_dir(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    started = time.time()
    try:
        # element-opt is the one command with quality targets for --strict
        extra = {"strict": args.strict} if args.command == "element-opt" else {}
        outputs, summary = COMMANDS[args.command](scn, out_dir, **extra)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "tool_version": __version__,
        "subcommand": args.command,
        "scenario_hash": scn.hash(),
        "seed": scn.rng_seed,
        "wall_clock_s": round(time.time() - started, 3),
        "outputs": [os.path.basename(p) for p in outputs],
    }
    manifest_path = os.path.join(out_dir, f"{args.command.replace('-', '_')}_manifest.json")
    write_json(manifest_path, manifest)
    print(summary)
    for path in outputs + [manifest_path]:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
