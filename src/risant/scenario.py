"""Scenario configuration: YAML loading, defaults, overrides, and builders.

A scenario file is a nested mapping with seven optional sections
(element, array, feed, pattern, link, frame, training) plus a global
rng_seed.  Every key has a default matching the prototype hardware, so
an empty file is a complete, runnable scenario.  The model dataclasses
are the schema: a section that feeds one takes its defaults from the
class and is built by coercing each key by the class's type hints.
Unknown keys anywhere are rejected with their dotted path; every leaf
can also be overridden from the command line by the same dotted name.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .constants import FREQUENCY_GHZ, Range
from .element import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_START_CIRCUIT,
    DEFAULT_SWEEPS,
    DESIGN_CIRCUIT,
    DesignTargets,
    DiodeModel,
    ElementCircuit,
    SweepRange,
)
from .feedopt import FeedSearchSpace
from .geometry import (
    AntennaAssembly,
    Direction,
    FeedModel,
    IncidenceModel,
    RisArray,
)
from .link import (
    DEFAULT_ACLR_SYMBOLS,
    DEFAULT_CHANNEL_BANDWIDTH_MHZ,
    DEFAULT_EVM_SYMBOLS,
    LINK_DISTANCE_M,
    MAX_ACLR_SYMBOLS,
    MAX_EVM_SYMBOLS,
    PRB_TABLE_120KHZ,
    FrameConfig,
    LinkScenario,
    PaModel,
    XpdModel,
)
from .pattern import DEFAULT_GRID_STEP_DEG, MIN_GRID_STEP_DEG, illumination, spillover_efficiency
from .synthesis import (
    DEFAULT_ACCEPT_THRESHOLD_DB,
    DEFAULT_CODEBOOK_BRANCHING,
    DEFAULT_CODEBOOK_LEVELS,
    MAX_TRAINING_TRIALS,
    SCAN_SECTOR,
)


class ScenarioError(Exception):
    """Configuration problem: unknown key, bad type, unparseable file."""


def _defaults(model, *skip) -> dict:
    """The scenario section of a model dataclass: the field defaults of a
    class, or the field values of an instance, without ``skip`` and the
    fields set after init; tuples become lists, as YAML gives them."""
    section = {}
    for f in fields(model):
        if f.init and f.name not in skip:
            value = getattr(model, f.name)
            section[f.name] = list(value) if isinstance(value, tuple) else value
    return section


DEFAULT_SCENARIO = {
    "rng_seed": 0,
    "element": {
        # a circuit's diode has a section of its own
        "start": _defaults(DEFAULT_START_CIRCUIT, "diode"),
        "diode": _defaults(DiodeModel),
        # tuned element used by every pattern-level subcommand; matches
        # the frozen output of element-opt from the start values above
        "design": {**_defaults(DESIGN_CIRCUIT, "diode"),
                   "l_diode_nh": DESIGN_CIRCUIT.diode.l_diode_nh},
        "sweeps": {name: [r.lo, r.hi, r.step] for name, r in DEFAULT_SWEEPS.items()},
        "targets": _defaults(DesignTargets),
        "max_rounds": DEFAULT_MAX_ROUNDS,
    },
    "array": _defaults(RisArray),
    "feed": {
        **_defaults(FeedModel),
        "search": _defaults(FeedSearchSpace),
    },
    "pattern": {
        "frequency_ghz": AntennaAssembly.frequency_ghz,
        "step_deg": DEFAULT_GRID_STEP_DEG,
        "target": {"az_deg": 0.0, "el_deg": 0.0},
        "scan_az_deg": [-60.0, -45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0, 60.0],
        "scan_el_deg": [-30.0, -10.0, 10.0, 30.0],
        "widebeam": {"sector_az_deg": [-15.0, 15.0], "el_deg": 0.0,
                     "n_subapertures": None},
        "incidence": {"enabled": False, **_defaults(IncidenceModel)},
        "compensate_incidence": False,
    },
    "link": {
        **_defaults(LinkScenario),
        "evm_symbols": DEFAULT_EVM_SYMBOLS,
        "sweep_distances_m": [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0,
                              14.0, 16.0, 18.0, 20.0],
        "pa": _defaults(PaModel),
        "aclr": {"centers_ghz": [25.2, 26.8],
                 "channel_bandwidth_mhz": DEFAULT_CHANNEL_BANDWIDTH_MHZ,
                 "n_symbols": DEFAULT_ACLR_SYMBOLS,
                 "aod_az_deg": [-60.0, -30.0, 0.0, 30.0, 60.0]},
        "stream_gains_dbi": {"h": 22.01, "v": 22.11},
        "xpd_db": {"h": XpdModel.h_antenna_db, "v": XpdModel.v_antenna_db},
        "dual": {"d_m": 3.0, "center_freq_ghz": 26.6},
    },
    "frame": _defaults(FrameConfig),
    "training": {
        "n_levels": DEFAULT_CODEBOOK_LEVELS,
        "branching": DEFAULT_CODEBOOK_BRANCHING,
        "pilot_snr_db": 5.0,
        "n_trials": 200,
        "accept_threshold_db": DEFAULT_ACCEPT_THRESHOLD_DB,
        "sector_az_deg": list(SCAN_SECTOR[0]),
        "el_deg": 0.0,
    },
}

# scenario keys that feed model fields of another name
_FIELDS = {XpdModel: {"h": "h_antenna_db", "v": "v_antenna_db"}}

# Directions and sectors lie in the scan sector that synthesis accepts
_AZ, _EL = (Range(lo, hi) for lo, hi in SCAN_SECTOR)
_SECTOR = (lambda v: v[0] < v[1], "[lo, hi] with lo < hi")

# Range of the dB keys read as plain values: a pilot 100 dB under its noise
# carries nothing, a widening threshold 100 dB off widens always or never,
# and 100 dBi is 66 dB past the prototype aperture's directivity bound.  The
# ratios 10**(x/10) stay far inside float64 here; at 1e15 dB they overflow.
_DB = Range(-100.0, 100.0)

# keys that commands read as plain values, checked when the scenario
# resolves: dotted key -> (type hint, the Range of the number or of each
# entry of a list, or None[, a test of the whole value, what it asks for])
_LITERALS = {
    "rng_seed": (int, Range(0)),
    "element.max_rounds": (int, Range(0)),
    "pattern.frequency_ghz": (float, FREQUENCY_GHZ),
    # at most 2 * 90 / 0.1 + 1 = 1801 directions an axis
    "pattern.step_deg": (float, Range(MIN_GRID_STEP_DEG, 90.0)),
    "pattern.target.az_deg": (float, _AZ),
    "pattern.target.el_deg": (float, _EL),
    "pattern.scan_az_deg": (list[float], _AZ),
    "pattern.scan_el_deg": (list[float], _EL),
    "pattern.widebeam.sector_az_deg": (tuple[float, float], _AZ, *_SECTOR),
    "pattern.widebeam.el_deg": (float, _EL),
    "pattern.widebeam.n_subapertures": (int | None, Range(1)),
    "pattern.incidence.enabled": (bool, None),
    "pattern.compensate_incidence": (bool, None),
    "link.evm_symbols": (int, Range(1, MAX_EVM_SYMBOLS)),
    "link.sweep_distances_m": (list[float], LINK_DISTANCE_M,
                               lambda v: v and v == sorted(v), "a non-empty ascending list"),
    "link.aclr.centers_ghz": (list[float], None),
    "link.aclr.channel_bandwidth_mhz": (float, None, lambda v: v in PRB_TABLE_120KHZ,
                                        f"one of {sorted(PRB_TABLE_120KHZ)} MHz"),
    "link.aclr.n_symbols": (int, Range(1, MAX_ACLR_SYMBOLS)),
    "link.aclr.aod_az_deg": (list[float], None),
    "link.stream_gains_dbi.h": (float, _DB),
    "link.stream_gains_dbi.v": (float, _DB),
    "training.n_levels": (int, Range(1)),
    "training.branching": (int, Range(2)),
    "training.pilot_snr_db": (float, _DB),
    "training.n_trials": (int, Range(1, MAX_TRAINING_TRIALS)),
    "training.accept_threshold_db": (float, _DB),
    "training.sector_az_deg": (tuple[float, float], _AZ, *_SECTOR),
    "training.el_deg": (float, _EL),
}

_KINDS = {float: "a finite number", int: "an integer", str: "a string",
          bool: "true or false"}

_hints = functools.cache(typing.get_type_hints)


def _coerce(raw, hint, dotted: str):
    """``raw`` as a value of type ``hint``, or a ScenarioError naming ``dotted``.

    Knows the hints of the model fields and of ``_LITERALS``: float, int,
    str, bool, X | None, fixed-length tuple[...] and list[X]; any other
    hint passes the value through.
    """
    args = typing.get_args(hint)
    if type(None) in args:                                   # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if raw is None else _coerce(raw, inner, dotted)
    origin = typing.get_origin(hint)
    if origin is tuple:
        if isinstance(raw, (list, tuple)) and len(raw) == len(args):
            return tuple(_coerce(v, a, dotted) for v, a in zip(raw, args))
        raise ScenarioError(f"{dotted} must be a list of {len(args)} values, got {raw!r}")
    if origin is list:
        if isinstance(raw, list):
            return [_coerce(v, args[0], dotted) for v in raw]
        raise ScenarioError(f"{dotted} must be a list, got {raw!r}")
    if hint not in _KINDS or (hint in (str, bool) and isinstance(raw, hint)):
        return raw
    if hint in (int, float) and not isinstance(raw, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            value = float(raw)          # numeric text too: YAML reads 1e3 as a string
            if math.isfinite(value) and (hint is float or value.is_integer()):
                return hint(value)
    raise ScenarioError(f"{dotted} must be {_KINDS[hint]}, got {raw!r}")


def _build(cls, section: dict, dotted: str, **given):
    """Build ``cls`` from the keys of ``section`` that name its fields.

    Each key is coerced by the class's type hints and wins over ``given``,
    which holds finished values for the other fields.  A value the model
    rejects becomes a ScenarioError naming the keys set away from their
    defaults (or the section, if none is).
    """
    hints = _hints(cls)
    kwargs, used = dict(given), {}
    for key, raw in section.items():
        name = _FIELDS.get(cls, {}).get(key, key)
        if name in hints:
            kwargs[name] = _coerce(raw, hints[name], f"{dotted}.{key}")
            used[key] = raw
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        keys = _changed(iter_leaf_paths(used, dotted))
        raise ScenarioError(f"{', '.join(keys) or dotted}: {exc}") from None


def _changed(leaves) -> list[str]:
    """The dotted names of the (dotted name, value) pairs ``leaves`` whose
    value differs from the key's default."""
    defaults = dict(iter_leaf_paths())
    return [dotted for dotted, value in leaves if value != defaults.get(dotted)]


def _merge(defaults, user, path=""):
    """Deep merge with unknown-key rejection; user values win.  Only the
    sections that ``user`` sets are copied: the rest stay the defaults' own."""
    if not isinstance(user, dict):
        raise ScenarioError(f"section '{path or '<root>'}' must be a mapping, "
                            f"got {type(user).__name__}")
    merged = dict(defaults)
    for key, value in user.items():
        dotted = f"{path}.{key}" if path else str(key)
        if key not in defaults:
            raise ScenarioError(f"unknown key '{dotted}'")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, dotted)
        else:
            merged[key] = value
    return merged


def _set_dotted(data: dict, dotted: str, value):
    """Set a leaf of ``data``, copying the (maybe shared) sections on its path."""
    parts = dotted.split(".")
    parent = node = data
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            raise ScenarioError(f"unknown key '{'.'.join(parts[:i + 1])}'")
        if isinstance(node[part], dict):   # a section is refused below
            node[part] = dict(node[part])
        parent, node = node, node[part]
    if isinstance(node, dict):
        raise ScenarioError(f"'{dotted}' is a section, not a value")
    parent[parts[-1]] = value


def _raw(data: dict, dotted: str):
    return functools.reduce(dict.__getitem__, dotted.split("."), data)


def _literal(data: dict, dotted: str):
    """The value of a key of ``_LITERALS`` in ``data``, coerced and checked."""
    hint, rng, *rule = _LITERALS[dotted]
    raw = _raw(data, dotted)
    value = _coerce(raw, hint, dotted)
    try:
        if rng is not None and value is not None:
            rng.check(value, dotted)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    if rule and not rule[0](value):
        raise ScenarioError(f"{dotted} must be {rule[1]}, got {raw!r}")
    return value


def _entry(key, value) -> str:
    """``key`` and ``value`` as the canonical JSON of a mapping holds them."""
    return json.dumps({key: value}, sort_keys=True, separators=(",", ":"), default=str)[1:-1]


# Worked out once per process: each _LITERALS key's (raw default, checked
# value), and the canonical text of each top-level entry of the defaults.
_DEFAULT_LITERALS = {d: (_raw(DEFAULT_SCENARIO, d), _literal(DEFAULT_SCENARIO, d))
                     for d in _LITERALS}
_DEFAULT_ENTRIES = {key: _entry(key, value) for key, value in DEFAULT_SCENARIO.items()}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved configuration; `data` is the merged plain mapping and
    `literals` the checked value of every ``_LITERALS`` key."""

    data: dict
    literals: dict

    # -- access -----------------------------------------------------------

    def literal(self, dotted: str):
        """The checked value of a key of ``_LITERALS``."""
        return self.literals[dotted]

    def section(self, name: str) -> dict:
        return self.data[name]

    @contextlib.contextmanager
    def blame(self, *names: str):
        """Turn a ValueError raised in the block into a ScenarioError naming
        the keys among ``names`` set away from their defaults, a dotted
        section standing for its own keys (subsections aside), or naming
        ``names`` themselves if none is."""
        try:
            yield
        except ValueError as exc:
            keys = _changed((dotted, value) for name in names
                            for dotted, value in iter_leaf_paths(self.data)
                            if name in (dotted, dotted.rpartition(".")[0]))
            raise ScenarioError(f"{', '.join(keys or names)}: {exc}") from None

    def hash(self) -> str:
        """sha256 of ``data``'s canonical JSON, composed one top-level entry
        at a time: an entry that is still the defaults' own reuses its text."""
        canonical = ",".join([_DEFAULT_ENTRIES[key] if value is DEFAULT_SCENARIO[key]
                              else _entry(key, value) for key, value in sorted(self.data.items())])
        return hashlib.sha256(f"{{{canonical}}}".encode()).hexdigest()

    # -- builders ---------------------------------------------------------

    def build_array(self) -> RisArray:
        return _build(RisArray, self.data["array"], "array")

    def build_feed(self) -> FeedModel:
        return _build(FeedModel, self.data["feed"], "feed")

    def build_assembly(self) -> AntennaAssembly:
        model = (_build(IncidenceModel, self.data["pattern"]["incidence"], "pattern.incidence")
                 if self.literal("pattern.incidence.enabled") else None)
        array, xpd = self.build_array(), self.build_xpd()
        cross_pol = xpd.h_antenna_db if array.polarization == "H" else xpd.v_antenna_db
        feed, circuit = self.build_feed(), self.build_design_circuit()
        # of the assembly's own checks only the period in wavelengths can fail here
        with self.blame("array", "pattern.frequency_ghz"):
            assembly = AntennaAssembly(
                array=array, feed=feed, frequency_ghz=self.literal("pattern.frequency_ghz"),
                cross_pol_db=cross_pol, element_circuit=circuit, incidence_model=model)
        # a lattice or a feed far out of scale underflows the integral to 0,
        # or overflows it to nan; a feed pattern too steep for every element
        # squares the illumination to 0.  Both are memoized for the command.
        with np.errstate(all="ignore"):
            spillover = spillover_efficiency(assembly)
        with self.blame("array", "feed"):
            if not spillover > 0:
                raise ValueError(f"the aperture intercepts none of the feed's power "
                                 f"(spillover {spillover})")
            illumination(assembly)
        return assembly

    def build_diode(self) -> DiodeModel:
        return _build(DiodeModel, self.data["element"]["diode"], "element.diode")

    def build_start_circuit(self) -> ElementCircuit:
        return _build(ElementCircuit, self.data["element"]["start"], "element.start",
                      diode=self.build_diode())

    def build_design_circuit(self) -> ElementCircuit:
        design = self.data["element"]["design"]
        diode = _build(DiodeModel, design, "element.design", **vars(self.build_diode()))
        return _build(ElementCircuit, design, "element.design", diode=diode)

    def build_sweeps(self) -> dict[str, SweepRange]:
        out = {}
        for name, bounds in self.data["element"]["sweeps"].items():
            dotted = f"element.sweeps.{name}"
            lo, hi, step = _coerce(bounds, tuple[float, float, float], dotted)
            out[name] = _build(SweepRange, {}, dotted, lo=lo, hi=hi, step=step)
        return out

    def build_targets(self) -> DesignTargets:
        return _build(DesignTargets, self.data["element"]["targets"], "element.targets")

    def build_feed_space(self) -> FeedSearchSpace:
        return _build(FeedSearchSpace, self.data["feed"]["search"], "feed.search")

    def build_target_direction(self) -> Direction:
        return _build(Direction, self.data["pattern"]["target"], "pattern.target")

    def build_link(self, dual: bool = False) -> LinkScenario:
        link = _build(LinkScenario, self.data["link"], "link")
        return (_build(LinkScenario, self.data["link"]["dual"], "link.dual", **vars(link))
                if dual else link)

    def build_pa(self) -> PaModel:
        return _build(PaModel, self.data["link"]["pa"], "link.pa")

    def build_xpd(self) -> XpdModel:
        return _build(XpdModel, self.data["link"]["xpd_db"], "link.xpd_db")

    def build_frame(self) -> FrameConfig:
        return _build(FrameConfig, self.data["frame"], "frame")


def resolve_scenario(user_data: dict | None, overrides=()) -> Scenario:
    """Merge user data over the defaults and apply ``(dotted, value)``
    overrides; a bad literal value fails here, before any command runs."""
    merged = _merge(DEFAULT_SCENARIO, user_data or {})
    for dotted, value in overrides:
        _set_dotted(merged, dotted, value)
    # _literal is a function of the raw object alone, so a leaf that is still
    # the default's own object keeps the default's checked value
    return Scenario(data=merged, literals={
        d: value if _raw(merged, d) is default else _literal(merged, d)
        for d, (default, value) in _DEFAULT_LITERALS.items()})


def load_scenario(path: str | None, overrides=()) -> Scenario:
    """Read a YAML scenario file (None or empty file = all defaults)."""
    data = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario '{path}': {exc}") from exc
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse scenario '{path}': {exc}") from exc
        if data is not None and not isinstance(data, dict):
            raise ScenarioError(f"scenario '{path}' must be a mapping at top level")
    return resolve_scenario(data, overrides)


def iter_leaf_paths(data: dict | None = None, path: str = ""):
    """Yield (dotted_name, default_value) for every scalar leaf."""
    node = DEFAULT_SCENARIO if data is None else data
    for key, value in node.items():
        dotted = f"{path}.{key}" if path else str(key)
        if isinstance(value, dict):
            yield from iter_leaf_paths(value, dotted)
        else:
            yield dotted, value
