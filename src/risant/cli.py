"""Batch command-line front-end.

Every subcommand loads one scenario file (all keys optional; an empty
or absent file runs the prototype defaults) and runs one module; its
command function returns the artifacts, a JSON payload or a CSV
(header, columns) pair of equal-length 1-D columns each, and ``main``
alone writes them plus a run manifest into the output directory.
Artifacts are deterministic: identical scenario and seed produce
byte-identical CSV files.

Every scenario leaf is also a flag, ``--dotted.leaf VALUE`` or
``--dotted.leaf=VALUE`` with a YAML value (read by libyaml where PyYAML
has it); one argv scan collects these overrides in order, and argparse
parses the rest.

Besides the leaf flags a run takes two options: ``--scenario FILE``
and ``--out DIR`` (default the working directory).

Exit codes: 0 success (a quality target the command reports missed, such
as element-opt's, included), 2 configuration error.
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
from .element import optimize_structure
from .feedopt import aperture_efficiency, coarse_optimize_feed, refine_feed
from .geometry import Direction
from .link import (
    EVM_LIMIT,
    ACLR_LIMIT_DBC,
    dl_duty,
    dual_stream_sinr,
    evm_closed_form,
    evm_vs_distance,
    link_budget,
    measure_aclr,
    peak_rate_3gpp,
    simulate_evm,
)
from .pattern import far_field, pattern_metrics
from .scenario import ScenarioError, Scenario, iter_leaf_paths, load_scenario
from .synthesis import (
    build_codebook,
    paired_training,
    scan_evaluation,
    synthesize_codeword,
    synthesize_wide_beam,
)

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


# Rows formatted and written per block: the text of a block, not of the
# file, is held at once, whatever the lattice size.
_CSV_BLOCK_ROWS = 4096


def _column(values):
    """(%-conversion, array) of one CSV column, whose slices' ``tolist()``
    formatted by the conversion give each cell the text ``_fmt`` gives it.
    Floats take ``%.10g`` or, where a column holds at most half as many distinct
    bit patterns as rows (a lattice's x, y, z), their text once a value under ``%s``."""
    array = np.asarray(values)
    kind = array.dtype.kind
    # a sequence that mixes types (True and 2, or 1 and 2.5) is promoted to
    # one dtype, whose conversion would not be _fmt's for every cell
    if kind in "biuf" and not isinstance(values, np.ndarray) and len(set(map(type, values))) > 1:
        kind = "O"
    if kind == "b":
        return "%s", np.where(array, "true", "false")
    if kind in "iu":
        return "%d", array
    if kind == "f":
        if array.itemsize <= 8:   # a long double has no integer view
            bits = array.view(f"u{array.itemsize}")
            # one sort and a search: np.unique(return_inverse=True) costs 2-4x more
            ordered = np.sort(bits)
            distinct = np.append(ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]])
            if 2 * distinct.size <= bits.size:
                texts = ["%.10g" % v for v in distinct.view(array.dtype).tolist()]
                return "%s", np.array(texts, dtype=object)[np.searchsorted(distinct, bits)]
        return "%.10g", array
    return "%s", np.array([_fmt(v) for v in values], dtype=object)


def write_csv(path: str, header, columns) -> str:
    """Write equal-length 1-D ``columns`` under ``header``; returns ``path``."""
    columns = [_column(values) for values in columns]
    lengths = [len(array) for _, array in columns]
    if len(set(lengths)) > 1:
        # zip would drop the rows past the shortest column
        raise ValueError(f"CSV columns differ in length: {lengths}")
    template = ",".join(conversion for conversion, _ in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, max(lengths, default=0), _CSV_BLOCK_ROWS):
            block = [array[start:start + _CSV_BLOCK_ROWS].tolist() for _, array in columns]
            cells = [None] * (len(block[0]) * len(block))
            for j, column in enumerate(block):
                cells[j::len(block)] = column
            fh.write(template * len(block[0]) % tuple(cells))
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
# subcommand implementations.  Each is a function of the scenario alone and
# returns (artifacts, summary line): artifacts maps each file name, in write
# order, to a JSON payload or a CSV (header, columns) pair of equal-length
# 1-D columns.


def cmd_element_opt(scn: Scenario):
    freq = scn.literal("pattern.frequency_ghz")
    with scn.blame("element.sweeps", "element.start", "element.diode"):
        result = optimize_structure(scn.build_start_circuit(), frequency_ghz=freq,
                                    targets=scn.build_targets(), sweeps=scn.build_sweeps(),
                                    max_rounds=scn.literal("element.max_rounds"))
    c = result.circuit
    artifacts = {"element_opt.json": {
        "frequency_ghz": freq,
        # the tuned values under the scenario's circuit keys
        "circuit": {**{key: getattr(c, key) for key in scn.section("element")["start"]},
                    "diode_l_nh": c.diode.l_diode_nh},
        "amp_on": result.amp_on, "amp_off": result.amp_off,
        "phase_diff_deg": result.phase_diff_deg, "objective": result.objective,
        "rounds_used": result.rounds_used, "targets_met": result.targets_met,
    }}
    if result.trace:
        artifacts["element_trace.csv"] = (["round", "parameter", "value", "amp_on", "amp_off",
                                           "phase_diff_deg", "objective"], zip(*result.trace))
    return artifacts, (f"element-opt: |G_on| {result.amp_on:.4f} |G_off| "
                       f"{result.amp_off:.4f} dphi {result.phase_diff_deg:.2f} deg "
                       f"targets_met={result.targets_met}")


def cmd_pattern(scn: Scenario):
    asm = scn.build_assembly()
    target = scn.build_target_direction()
    cw = synthesize_codeword(asm, target, scn.literal("pattern.compensate_incidence"))
    step = scn.literal("pattern.step_deg")
    m = pattern_metrics(asm, cw, step)
    peak = m.peak_direction
    sll = "n/a" if m.sll_db is None else f"{m.sll_db:.2f}"
    return {
        "pattern.json": {
            "target": {"az_deg": target.az_deg, "el_deg": target.el_deg},
            "peak_gain_dbi": m.peak_gain_dbi,
            "peak_direction": {"az_deg": peak.az_deg, "el_deg": peak.el_deg},
            "sll_db": m.sll_db, "hpbw_az_deg": m.hpbw_az_deg, "hpbw_el_deg": m.hpbw_el_deg,
            "cross_pol_db": m.cross_pol_db, "grid_step_deg": step,
        },
        "pattern_cut_az.csv": (["az_deg", "gain_dbi"], (m.az_deg, m.az_cut_dbi)),
        "pattern_cut_el.csv": (["el_deg", "gain_dbi"], (m.el_deg, m.el_cut_dbi)),
    }, (f"pattern: peak {m.peak_gain_dbi:.2f} dBi at ({peak.az_deg:.2f}, "
        f"{peak.el_deg:.2f}) deg, SLL {sll} dB")


def cmd_steer(scn: Scenario):
    asm = scn.build_assembly()
    targets = [Direction(a, 0.0) for a in scn.literal("pattern.scan_az_deg")]
    targets += [Direction(0.0, e) for e in scn.literal("pattern.scan_el_deg")]
    if not targets:
        raise ScenarioError("pattern.scan_az_deg and pattern.scan_el_deg are both empty")
    rows = scan_evaluation(asm, targets, scn.literal("pattern.compensate_incidence"))
    worst = max(r[3] for r in rows)
    return {
        "steer.csv": (["az_deg", "el_deg", "gain_dbi", "pointing_error_deg",
                       "loss_vs_broadside_db"], zip(*rows)),
        "steer.json": {"n_directions": len(rows), "max_pointing_error_deg": worst,
                       "max_loss_vs_broadside_db": max(r[4] for r in rows)},
    }, f"steer: {len(rows)} directions, worst pointing error {worst:.2f} deg"


def cmd_widebeam(scn: Scenario):
    asm = scn.build_assembly()
    sector = scn.literal("pattern.widebeam.sector_az_deg")
    el = scn.literal("pattern.widebeam.el_deg")
    with scn.blame("pattern.widebeam", "array"):   # more strips than columns
        result = synthesize_wide_beam(
            asm, sector, el_deg=el,
            n_subapertures=scn.literal("pattern.widebeam.n_subapertures"))
    az = np.arange(sector[0] - 10.0, sector[1] + 10.0 + 1e-9, 0.25)
    pat = far_field(asm, result.codeword, az, np.array([el]))
    states = np.asarray(result.codeword.states, dtype=int)
    return {
        "widebeam.json": {"sector_az_deg": list(sector), "el_deg": el,
                          "n_subapertures": result.n_subapertures,
                          "ripple_db": result.ripple_db, "note": result.note},
        "widebeam_cut.csv": (["az_deg", "gain_dbi"], (az, pat.gain_dbi()[0])),
        "widebeam_states.csv": (["group", "state"],
                                (np.arange(states.size), states)),
    }, (f"widebeam: {result.n_subapertures} subapertures, ripple "
        f"{result.ripple_db:.2f} dB over [{sector[0]}, {sector[1]}] deg")


def cmd_feed_opt(scn: Scenario):
    asm = scn.build_assembly()
    with scn.blame("feed", "feed.search"):   # a feed position that lights no element
        coarse = coarse_optimize_feed(asm, scn.build_feed_space())
        refined = refine_feed(asm, coarse.position_mm)
        refined_breakdown = aperture_efficiency(
            replace(asm, feed=replace(asm.feed, position_mm=refined.position_mm)))
    x, y, z = refined.position_mm
    return {
        "feed_opt.json": {
            "nominal_position_mm": list(asm.feed.position_mm),
            "nominal_predicted_gain_dbi": aperture_efficiency(asm).predicted_gain_dbi,
            "coarse_position_mm": list(coarse.position_mm),
            "coarse_predicted_gain_dbi": coarse.predicted_gain_dbi,
            "refined_position_mm": list(refined.position_mm),
            "refined_realized_gain_dbi": refined.realized_gain_dbi,
            "refined_predicted_gain_dbi": refined_breakdown.predicted_gain_dbi,
            "eta_spillover": refined_breakdown.eta_spillover,
            "eta_illumination": refined_breakdown.eta_illumination,
        },
        "feed_scan.csv": (["x_mm", "y_mm", "z_mm", "eta_spillover", "eta_illumination",
                           "predicted_gain_dbi"], zip(*coarse.evaluations)),
        "feed_refine.csv": (["dx_mm", "dy_mm", "dz_mm", "realized_gain_dbi"],
                            zip(*refined.evaluations)),
    }, (f"feed-opt: refined ({x:.1f}, {y:.1f}, {z:.1f}) mm, "
        f"{refined.realized_gain_dbi:.2f} dBi realized")


def cmd_link(scn: Scenario):
    ls = scn.build_link()
    snr = link_budget(ls)
    evm_cf = evm_closed_form(snr, ls.tx_evm_floor)
    evm_mc = simulate_evm(snr, ls.tx_evm_floor, ls.modulation,
                          scn.literal("link.evm_symbols"), scn.literal("rng_seed"))
    return {"link.json": {
        "d_m": ls.d_m, "center_freq_ghz": ls.center_freq_ghz,
        "bandwidth_mhz": ls.bandwidth_mhz, "modulation": ls.modulation, "snr_db": snr,
        "evm_closed_form_pct": 100.0 * evm_cf, "evm_simulated_pct": 100.0 * evm_mc,
        "evm_limit_pct": 100.0 * EVM_LIMIT, "pass_evm": evm_cf <= EVM_LIMIT,
    }}, (f"link: snr {snr:.2f} dB, EVM {100 * evm_cf:.2f}% "
         f"(simulated {100 * evm_mc:.2f}%)")


def cmd_evm_sweep(scn: Scenario):
    rows = evm_vs_distance(scn.build_link(), scn.literal("link.sweep_distances_m"))
    worst, all_pass = max(r[2] for r in rows), all(r[3] for r in rows)
    return {
        "evm_sweep.csv": (["d_m", "snr_db", "evm_pct", "pass_8pct"], zip(*rows)),
        "evm_sweep.json": {"n_points": len(rows), "all_pass": all_pass,
                           "worst_evm_pct": worst},
    }, (f"evm-sweep: {len(rows)} distances, worst EVM {worst:.2f}%, "
        f"all_pass={all_pass}")


def cmd_aclr_sweep(scn: Scenario):
    pa = scn.build_pa()
    bw_mhz = scn.literal("link.aclr.channel_bandwidth_mhz")
    with scn.blame("link.pa"):   # the amplifier drives every sample to 0
        lower, upper = measure_aclr(pa, scn.literal("link.aclr.n_symbols"),
                                    scn.literal("rng_seed"), bw_mhz)
    passed = max(lower, upper) <= ACLR_LIMIT_DBC
    # the amplifier operating point is independent of carrier and beam
    # direction here, so the measured leakage repeats across the sweep
    rows = [(center, aod, lower, upper, passed)
            for center in scn.literal("link.aclr.centers_ghz")
            for aod in scn.literal("link.aclr.aod_az_deg")]
    return {
        "aclr_sweep.csv": (["center_freq_ghz", "aod_az_deg", "aclr_lower_dbc",
                            "aclr_upper_dbc", "pass_28dbc"], zip(*rows)),
        "aclr_sweep.json": {"pa": asdict(pa), "channel_bandwidth_mhz": bw_mhz,
                            "aclr_lower_dbc": lower, "aclr_upper_dbc": upper,
                            "limit_dbc": ACLR_LIMIT_DBC, "all_pass": passed},
    }, f"aclr-sweep: {lower:.1f} / {upper:.1f} dBc ({pa.kind} PA), all_pass={passed}"


def cmd_dual_stream(scn: Scenario):
    ls = scn.build_link(dual=True)
    gains = {pol: scn.literal(f"link.stream_gains_dbi.{pol}") for pol in ("h", "v")}
    xpd = scn.build_xpd()
    sinr = dual_stream_sinr(gains, xpd, ls)
    return {
        "dual_stream.csv": (["stream", "gain_dbi", "leakage_db", "sinr_db"],
                            (["H", "V"], [gains["h"], gains["v"]],
                             [xpd.h_antenna_db, xpd.v_antenna_db], [sinr["h"], sinr["v"]])),
        "dual_stream.json": {"d_m": ls.d_m, "center_freq_ghz": ls.center_freq_ghz,
                             "sinr_h_db": sinr["h"], "sinr_v_db": sinr["v"]},
    }, f"dual-stream: SINR H {sinr['h']:.2f} dB, V {sinr['v']:.2f} dB"


def cmd_rate(scn: Scenario):
    frame = scn.build_frame()
    rate, duty = peak_rate_3gpp(frame), dl_duty(frame)
    return ({"rate.json": {"rate_bps": rate, "rate_gbps": rate / 1e9, "dl_duty": duty,
                           "frame": asdict(frame)}},
            f"rate: {rate / 1e9:.4f} Gbps (duty {duty:.4f})")


def cmd_train(scn: Scenario):
    asm = scn.build_assembly()
    sector = scn.literal("training.sector_az_deg")
    el = scn.literal("training.el_deg")
    with scn.blame("training", "array"):   # leaves far narrower than the beam
        codebook = build_codebook(asm, sector_az=sector,
                                  n_levels=scn.literal("training.n_levels"),
                                  branching=scn.literal("training.branching"), el_deg=el)
    n_trials = scn.literal("training.n_trials")
    snr = scn.literal("training.pilot_snr_db")
    # paired arms: identical pilot noise until the widened search retries
    truth_az, widened, baseline = paired_training(
        asm, codebook, scn.literal("rng_seed"), n_trials, el_deg=el, pilot_snr_db=snr,
        accept_threshold_db=scn.literal("training.accept_threshold_db"))
    rate_w = np.count_nonzero(widened.success) / n_trials
    rate_b = np.count_nonzero(baseline.success) / n_trials
    return {
        "train.csv": (["trial", "truth_az_deg", "success_widened", "success_baseline",
                       "pilots_widened", "pilots_baseline", "widenings"],
                      (np.arange(n_trials), truth_az, widened.success, baseline.success,
                       widened.pilots_used, baseline.pilots_used, widened.widenings)),
        "train.json": {
            "n_trials": n_trials, "pilot_snr_db": snr,
            "success_rate_widened": rate_w, "success_rate_baseline": rate_b,
            "mean_pilots_widened": int(widened.pilots_used.sum()) / n_trials,
            "mean_pilots_baseline": int(baseline.pilots_used.sum()) / n_trials,
        },
    }, (f"train: success {rate_w:.3f} widened vs {rate_b:.3f} "
        f"baseline over {n_trials} trials")


def cmd_geometry(scn: Scenario):
    array = scn.build_array()
    positions = array.positions_mm()
    return {
        "geometry.csv": (["index", "group", "x_mm", "y_mm", "z_mm"],
                         (np.arange(array.n_elements), array.grouping, *positions.T)),
        "geometry.json": {
            "n_elements": array.n_elements, "n_groups": array.n_groups,
            "aperture_m2": array.aperture_m2,
            "extent_x_mm": [float(positions[:, 0].min()), float(positions[:, 0].max())],
            "extent_y_mm": [float(positions[:, 1].min()), float(positions[:, 1].max())],
        },
    }, f"geometry: {array.n_elements} elements in {array.n_groups} groups"


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


# ---------------------------------------------------------------------------
# argument plumbing


# libyaml's loader where PyYAML was built with it: the same resolver as
# yaml.SafeLoader, about 7x faster on a short list
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
                    overrides.append((flag[2:], yaml.load(value, Loader=_YAML_LOADER)))
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
    parser.add_argument("command", choices=COMMANDS, help="pipeline to run")
    parser.add_argument("--scenario", metavar="FILE", default=None,
                        help="YAML scenario file (omitted = prototype defaults)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default the working directory)")
    parser.leaf_flags = frozenset(f"--{dotted}" for dotted, _ in iter_leaf_paths())
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses: no parse changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario, args.overrides)
        out_dir = args.out or os.getcwd()
        os.makedirs(out_dir, exist_ok=True)
        started = time.time()
        artifacts, summary = COMMANDS[args.command](scn)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    paths = []
    for name, content in artifacts.items():   # a JSON payload or a CSV (header, columns)
        path = os.path.join(out_dir, name)
        paths.append(write_json(path, content) if isinstance(content, dict)
                     else write_csv(path, *content))
    manifest = {"tool_version": __version__, "subcommand": args.command,
                "scenario_hash": scn.hash(), "seed": scn.literal("rng_seed"),
                "wall_clock_s": round(time.time() - started, 3), "outputs": list(artifacts)}
    paths.append(write_json(os.path.join(
        out_dir, f"{args.command.replace('-', '_')}_manifest.json"), manifest))
    print(summary)
    for path in paths:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
