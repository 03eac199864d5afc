"""Scenario resolution: defaults, merging, overrides, and the builders
that turn the plain mapping into typed model objects."""

import functools
from dataclasses import fields

import numpy as np
import pytest

from risant.cli import build_parser, main
from risant.element import (
    DEFAULT_START_CIRCUIT,
    DESIGN_CIRCUIT,
    DesignTargets,
    DiodeModel,
    ElementCircuit,
)
from risant.feedopt import FeedSearchSpace
from risant.geometry import Direction, FeedModel, IncidenceModel, RisArray
from risant.link import FrameConfig, LinkScenario, PaModel, XpdModel
from risant.scenario import (
    _FIELDS,
    DEFAULT_SCENARIO,
    Scenario,
    ScenarioError,
    iter_leaf_paths,
    load_scenario,
    resolve_scenario,
)


class TestResolve:
    def test_empty_input_gives_defaults(self):
        sc = resolve_scenario(None)
        assert sc.data == DEFAULT_SCENARIO
        assert sc.data is not DEFAULT_SCENARIO  # deep copied
        assert sc.literal("rng_seed") == 0

    def test_deep_merge_keeps_siblings(self):
        sc = resolve_scenario({"link": {"d_m": 9.0}})
        assert sc.data["link"]["d_m"] == 9.0
        assert sc.data["link"]["bandwidth_mhz"] == 400.0
        assert sc.data["frame"] == DEFAULT_SCENARIO["frame"]

    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ScenarioError, match="unknown key 'link.bogus'"):
            resolve_scenario({"link": {"bogus": 1}})
        with pytest.raises(ScenarioError, match="unknown key 'nope'"):
            resolve_scenario({"nope": 1})

    def test_section_must_be_mapping(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            resolve_scenario({"link": 5})

    def test_overrides_change_single_leaf(self):
        sc = resolve_scenario(None, overrides=[("frame.overhead", 0.10)])
        assert sc.data["frame"]["overhead"] == 0.10
        assert sc.data["frame"]["layers"] == 2

    def test_override_rejects_sections_and_unknowns(self):
        with pytest.raises(ScenarioError, match="is a section"):
            resolve_scenario(None, overrides=[("frame", 1)])
        with pytest.raises(ScenarioError, match="unknown key"):
            resolve_scenario(None, overrides=[("frame.blah", 1)])

    def test_hash_stable_and_sensitive(self):
        a = resolve_scenario(None)
        b = resolve_scenario(None)
        c = resolve_scenario(None, overrides=[("rng_seed", 7)])
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 64


class TestParseOverride:
    def test_yaml_typing(self):
        def parsed(flag, value):
            return build_parser().parse_args(["rate", f"--{flag}", value]).overrides

        assert parsed("frame.overhead", "0.14") == [("frame.overhead", 0.14)]
        assert parsed("array.n_x", "16") == [("array.n_x", 16)]
        assert parsed("pattern.incidence.enabled", "true") == [
            ("pattern.incidence.enabled", True)]
        assert parsed("feed.position_mm", "[0, 0, 100]") == [
            ("feed.position_mm", [0, 0, 100])]
        assert parsed("link.modulation", "QPSK") == [("link.modulation", "QPSK")]

    def test_a_reused_parser_starts_each_parse_without_overrides(self):
        parser = build_parser()
        assert parser.parse_args(["rate", "--frame.layers", "1"]).overrides == [
            ("frame.layers", 1)]
        assert parser.parse_args(["rate"]).overrides == []


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.yaml"))

    def test_unparseable_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("link: [unclosed\n")
        with pytest.raises(ScenarioError, match="cannot parse"):
            load_scenario(str(bad))

    def test_non_mapping_top_level(self, tmp_path):
        seq = tmp_path / "seq.yaml"
        seq.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="mapping at top level"):
            load_scenario(str(seq))

    def test_empty_file_is_all_defaults(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        assert load_scenario(str(empty)).data == DEFAULT_SCENARIO

    def test_none_path_is_all_defaults(self):
        assert load_scenario(None).data == DEFAULT_SCENARIO

    def test_file_plus_overrides(self, tmp_path):
        f = tmp_path / "s.yaml"
        f.write_text("link:\n  d_m: 2.0\n")
        sc = load_scenario(str(f), overrides=[("link.tx_power_dbm", 3)])
        assert sc.data["link"]["d_m"] == 2.0
        assert sc.data["link"]["tx_power_dbm"] == 3


class TestBuilders:
    def test_default_assembly(self, scenario, assembly):
        assert assembly.array.n_elements == 1024
        assert assembly.array.n_groups == 512
        assert assembly.feed.position_mm == (-82.0, 0.0, 150.0)
        assert assembly.frequency_ghz == 26.0
        assert assembly.element_circuit == DESIGN_CIRCUIT
        assert assembly.incidence_model is None

    def test_incidence_model_toggle(self):
        sc = resolve_scenario({"pattern": {"incidence": {"enabled": True,
                                                         "beta_deg_per_deg2": 0.01}}})
        asm = sc.build_assembly()
        assert asm.incidence_model is not None
        assert asm.incidence_model.beta_deg_per_deg2 == 0.01

    def test_start_circuit_matches_module_default(self, scenario):
        assert scenario.build_start_circuit() == DEFAULT_START_CIRCUIT

    def test_sweeps_and_targets(self, scenario):
        sweeps = scenario.build_sweeps()
        assert set(sweeps) == {"c_p_ff", "l_g_nh", "l_v_nh", "l_diode_nh"}
        assert sweeps["c_p_ff"].lo == 30.0 and sweeps["c_p_ff"].step == 0.5
        targets = scenario.build_targets()
        assert targets.min_amplitude == 0.85
        assert targets.phase_tolerance_deg == 5.0

    def test_link_and_dual_variant(self, scenario):
        link = scenario.build_link()
        assert link.d_m == 4.0 and link.center_freq_ghz == 26.0
        dual = scenario.build_link(dual=True)
        assert dual.d_m == 3.0 and dual.center_freq_ghz == 26.6
        assert dual.bandwidth_mhz == link.bandwidth_mhz

    def test_frame_uses_calibrated_overhead(self, scenario):
        frame = scenario.build_frame()
        assert frame.overhead == 0.14
        assert frame.prb_per_cc == 132
        assert frame.cc_count == 4

    def test_feed_space_and_pa_and_xpd(self, scenario):
        space = scenario.build_feed_space()
        assert space.x_mm == (-120.0, 120.0)
        assert space.z_mm == (80.0, 260.0)
        pa = scenario.build_pa()
        assert pa.kind == "rapp" and pa.saturation_level == 4.0
        xpd = scenario.build_xpd()
        assert xpd.h_antenna_db == -15.19 and xpd.v_antenna_db == -10.16

    def test_target_direction(self, scenario):
        d = scenario.build_target_direction()
        assert (d.az_deg, d.el_deg) == (0.0, 0.0)


class TestLeafPaths:
    def test_enumerates_scalar_leaves(self):
        leaves = dict(iter_leaf_paths())
        assert "frame.overhead" in leaves
        assert "element.start.c_p_ff" in leaves
        assert "training.pilot_snr_db" in leaves
        assert len(leaves) > 50
        assert not any(isinstance(v, dict) for v in leaves.values())

    def test_every_leaf_is_overridable(self):
        # writing each leaf's own default back must be a no-op
        sc = resolve_scenario(None, overrides=list(iter_leaf_paths()))
        assert sc.data == DEFAULT_SCENARIO


class TestBlame:
    """``Scenario.blame`` names the keys set away from their defaults."""

    @staticmethod
    def _message(overrides, *names):
        with pytest.raises(ScenarioError) as excinfo:
            with resolve_scenario(None, overrides).blame(*names):
                raise ValueError("boom")
        return str(excinfo.value)

    def test_names_the_keys_set_in_the_order_of_the_sections(self):
        overrides = [("array.n_y", 4), ("link.pa.smoothness", 3.0), ("array.n_x", 4)]
        assert self._message(overrides, "link.pa", "array") == (
            "link.pa.smoothness, array.n_x, array.n_y: boom")

    def test_names_the_sections_when_no_key_is_set(self):
        # a key written back at its default is not set away from it
        assert self._message([("array.n_x", 32)], "link.pa", "array") == "link.pa, array: boom"

    def test_a_section_leaves_out_its_subsections(self):
        assert self._message([("feed.search.z_mm", [100.0, 120.0])], "feed") == "feed: boom"

    def test_a_key_stands_for_itself_alone(self):
        assert self._message([("pattern.step_deg", 1.0)], "pattern.frequency_ghz") == (
            "pattern.frequency_ghz: boom")
        assert self._message([("pattern.frequency_ghz", 28.0), ("pattern.step_deg", 1.0)],
                             "array", "pattern.frequency_ghz") == "pattern.frequency_ghz: boom"

    @pytest.mark.parametrize("exc", [TypeError("boom"), ScenarioError("boom")])
    def test_other_errors_pass_through(self, exc):
        with pytest.raises(type(exc)) as excinfo:
            with resolve_scenario(None).blame("array"):
                raise exc
        assert excinfo.value is exc


class TestSingleSourceOfDefaults:
    """The default tree takes each model section from the model class, so
    building a default section gives the class's own default."""

    @pytest.mark.parametrize("build, expected", [
        ("build_diode", DiodeModel()),
        ("build_targets", DesignTargets()),
        ("build_feed", FeedModel()),
        ("build_feed_space", FeedSearchSpace()),
        ("build_link", LinkScenario()),
        ("build_pa", PaModel()),
        ("build_xpd", XpdModel()),
        ("build_frame", FrameConfig()),
    ])
    def test_section_builds_class_default(self, scenario, build, expected):
        assert getattr(scenario, build)() == expected

    @pytest.mark.parametrize("model, path, unset", [
        (RisArray, "array", ()),
        (FeedModel, "feed", ()),
        (FeedSearchSpace, "feed.search", ()),
        (IncidenceModel, "pattern.incidence", ()),
        (Direction, "pattern.target", ()),
        (DiodeModel, "element.diode", ()),
        # the diode has a section of its own
        (ElementCircuit, "element.start", ("diode",)),
        (ElementCircuit, "element.design", ("diode",)),
        (DesignTargets, "element.targets", ()),
        (LinkScenario, "link", ()),
        (PaModel, "link.pa", ()),
        (XpdModel, "link.xpd_db", ()),
        (FrameConfig, "frame", ()),
    ])
    def test_every_init_field_has_a_key(self, model, path, unset):
        # a field no key sets holds one value that no scenario can change
        section = functools.reduce(dict.__getitem__, path.split("."), DEFAULT_SCENARIO)
        named = {_FIELDS.get(model, {}).get(key, key) for key in section}
        init = {f.name for f in fields(model) if f.init}
        assert init - named == set(unset)

    def test_incidence_section_builds_class_default(self):
        sc = resolve_scenario({"pattern": {"incidence": {"enabled": True}}})
        assert sc.build_assembly().incidence_model == IncidenceModel()

    def test_array_fields_match_class_default(self, scenario):
        built, default = scenario.build_array(), RisArray()
        for f in fields(RisArray):
            np.testing.assert_array_equal(getattr(built, f.name), getattr(default, f.name))

    def test_default_hash_is_pinned(self):
        # any moved, added or removed default changes it, e.g. frame.overhead
        # 0.18 for 0.14
        assert resolve_scenario(None).hash() == (
            "8388fb92a851ad8737c513c0537bcdceda6e9e3d174c2a5bbd691d627f92b65d")

    def test_removed_link_aod_flag_is_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--link.aod.az_deg", "1"])
        assert excinfo.value.code == 2

    def test_removed_threads_flag_is_rejected(self):
        # it only worked with threadpoolctl; the BLAS environment variables remain
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--threads", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("section, key", [("feed", "gain_dbi"),
                                              ("link", "lna_gain_db"),
                                              ("feed", "polarization"),
                                              ("pattern", "cross_pol_db"),
                                              ("element", "trace")])
    def test_removed_unread_key_is_rejected(self, section, key):
        # the keys fed model fields that no output read, that a second key
        # already set (array.polarization, link.xpd_db), or that switched
        # off a trace whose rows cost nothing extra
        with pytest.raises(ScenarioError, match=f"unknown key '{section}.{key}'"):
            resolve_scenario({section: {key: 99.0}})
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", f"--{section}.{key}", "99"])
        assert excinfo.value.code == 2
