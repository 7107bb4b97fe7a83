"""Tests for the repro.overload sweep and its `repro overload` CLI.

A reduced three-point sweep (gather, Presto off) exercises the whole
machinery: both modes, the curve flags, the mid-storm crash probe, and
byte-identical same-seed JSON.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentSpec, run
from repro.overload import MODES, OverloadConfig
from repro.overload.experiment import _curve_flags, _verdict

SMALL = dict(
    write_paths=("gather",),
    presto_modes=(False,),
    loads=(8_000, 48_000, 480_000),
    seed=0,
)

_cache = {}


def small_report():
    if "report" not in _cache:
        _cache["report"] = run(ExperimentSpec("overload", OverloadConfig(**SMALL)))
    return _cache["report"]


class TestSweep:
    def test_structure_and_crash_contract(self):
        report = small_report()
        assert len(report.combos) == 1
        combo = report.combos[0]
        assert combo["write_path"] == "gather"
        assert combo["presto"] is False
        assert set(combo["curves"]) == set(MODES)
        for mode in MODES:
            curve = combo["curves"][mode]
            assert len(curve["points"]) == 3
            for point in curve["points"]:
                assert point["goodput_kbs"] > 0
                assert point["oracle_violations"] == []
                assert point["stable_violations"] == 0
                assert point["crashes"] == 0
            # The crash probe really crashed, mid-storm, and the ledger of
            # acked writes survived in BOTH modes — the paper's contract.
            probe = combo["crash_probe"][mode]
            assert probe["crashes"] == 1
            assert probe["oracle_violations"] == []
            assert probe["stable_violations"] == 0
        assert report.clean
        assert report.violations == []

    def test_adaptive_stack_is_actually_engaged(self):
        combo = small_report().combos[0]
        top_static = combo["curves"]["static"]["points"][-1]
        top_adaptive = combo["curves"]["adaptive"]["points"][-1]
        # Static sheds only by silent overflow: no shed accounting.
        assert "shed" not in top_static
        assert "karn_suppressed" not in top_static
        # Adaptive: admission queue made deliberate shed decisions, Karn
        # suppressed ambiguous samples, and the windows reacted.
        shed = top_adaptive["shed"]
        assert sum(shed.values()) > 0
        assert top_adaptive["karn_suppressed"] > 0
        assert len(top_adaptive["final_cwnd"]) == OverloadConfig(**SMALL).clients

    def test_static_collapses_and_adaptive_plateaus(self):
        combo = small_report().combos[0]
        assert combo["curves"]["static"]["collapse"] is True
        assert combo["curves"]["adaptive"]["monotone_nondecreasing"] is True
        verdict = combo["verdict"]
        assert verdict["adaptation_wins"] is True
        assert (
            combo["curves"]["adaptive"]["points"][-1]["recovery_s"]
            < combo["curves"]["static"]["points"][-1]["recovery_s"]
        )
        assert small_report().adaptation_holds

    def test_same_seed_json_is_byte_identical(self):
        first = small_report().to_json()
        second = run(ExperimentSpec("overload", OverloadConfig(**SMALL))).to_json()
        assert first == second


class TestUnscoredCurves:
    """A curve that delivered nothing at any load has no shape to judge:
    it must not read as a plateau, and its verdict must not pass."""

    def test_zero_goodput_curves_are_unscored_and_fail(self):
        config = OverloadConfig()
        flat = [{"goodput_kbs": 0.0}, {"goodput_kbs": 0.0}]
        flags = _curve_flags(flat, config.monotone_tolerance, config.collapse_margin)
        assert flags["unscored"] is True
        verdict = _verdict({"curves": {"static": flags, "adaptive": flags}}, config)
        assert verdict["unscored"] is True
        assert verdict["adaptation_wins"] is False


class TestConfigValidation:
    def test_loads_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            OverloadConfig(loads=(48_000, 8_000))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            OverloadConfig(modes=("static", "turbo"))

    def test_storm_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            OverloadConfig(storm_start_frac=0.8, storm_end_frac=0.2)

    def test_needs_a_client_and_a_load(self):
        with pytest.raises(ValueError):
            OverloadConfig(clients=0)
        with pytest.raises(ValueError):
            OverloadConfig(loads=())


class TestOverloadCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["overload"])
        assert args.seed == 0
        assert args.presto == "both"
        assert args.clients == 12
        assert args.loads is None
        assert not args.no_adapt
        assert not args.adapt_only

    def test_default_write_paths_come_from_the_config(self):
        # Not every WritePath: at low load async_commit clients never
        # COMMIT inside the deadline, so the sweep cannot score them.
        args = build_parser().parse_args(["overload"])
        assert tuple(args.write_paths) == OverloadConfig().write_paths

    def test_conflicting_mode_flags_rejected(self, capsys):
        assert main(["overload", "--no-adapt", "--adapt-only"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_json_small_sweep(self, capsys):
        code = main(
            [
                "overload",
                "--write-paths",
                "gather",
                "--presto",
                "off",
                "--loads",
                "8",
                "48",
                "470",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["adaptation_holds"] is True
        assert len(payload["combos"]) == 1
        assert set(payload["combos"][0]["curves"]) == {"static", "adaptive"}

    def test_no_adapt_runs_static_only(self, capsys):
        code = main(
            [
                "overload",
                "--write-paths",
                "gather",
                "--presto",
                "off",
                "--loads",
                "470",
                "--no-adapt",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        curves = payload["combos"][0]["curves"]
        assert "static" in curves and "adaptive" not in curves
        assert payload["combos"][0]["verdict"] is None
