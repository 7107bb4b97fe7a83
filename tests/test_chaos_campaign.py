"""ChaosCampaign: seeded reproducibility and the CLI front door.

The acceptance bar from the issue: a campaign across write paths × Presto
reports zero violations, and re-running with the same seed produces a
byte-identical JSON report.
"""

import json

from repro.cli import main
from repro.experiments import ExperimentSpec, run
from repro.faults import ChaosCampaign, ServerCrash
from repro.faults.campaign import WRITE_PATHS, ChaosParams


def small_campaign(seed=5):
    return ChaosCampaign(seed=seed, plans_per_combo=2, file_kb=64)


def small_report(seed=5):
    return run(ExperimentSpec("chaos", ChaosParams(seed=seed, plans=2, file_kb=64)))


def test_plan_generation_is_seed_deterministic():
    campaign = small_campaign()
    twin = small_campaign()
    for write_path in WRITE_PATHS:
        for presto in (False, True):
            for index in range(2):
                plan = campaign.plan_for(write_path, presto, index)
                again = twin.plan_for(write_path, presto, index)
                assert plan == again
    other = small_campaign(seed=6).plan_for("gather", False, 0)
    assert other != campaign.plan_for("gather", False, 0)


def test_even_indices_carry_a_crash():
    campaign = small_campaign()
    for write_path in WRITE_PATHS:
        even = campaign.plan_for(write_path, False, 0)
        odd = campaign.plan_for(write_path, False, 1)
        assert even.crash_count == 1
        assert any(isinstance(e, ServerCrash) for e in even.events)
        assert odd.crash_count == 0


def test_small_campaign_clean_and_byte_stable():
    report = small_report()
    assert report.clean, report.violations
    assert len(report.results) == len(WRITE_PATHS) * 2 * 2
    # Crashes actually happened somewhere (even-index plans).
    assert sum(result.crashes for result in report.results) > 0
    assert sum(result.acked_writes for result in report.results) > 0
    rerun = small_report()
    assert report.to_json() == rerun.to_json()


def test_report_surfaces_violations_with_combo_prefix():
    report = small_report()
    result = report.results[0]
    result.violations.append("synthetic violation")
    assert not report.clean
    prefix = f"{result.write_path}/presto={'on' if result.presto else 'off'}"
    assert any(
        violation.startswith(prefix) and "synthetic violation" in violation
        for violation in report.violations
    )


def test_cli_chaos_json(capsys):
    exit_code = main(
        ["chaos", "--seed", "3", "--plans", "1", "--file-kb", "48", "--json"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    report = json.loads(out)
    assert report["clean"] is True
    assert report["plans_run"] == len(WRITE_PATHS) * 2
    assert report["violations"] == []


def test_cli_chaos_subset_flags(capsys):
    exit_code = main(
        [
            "chaos",
            "--seed",
            "3",
            "--plans",
            "1",
            "--file-kb",
            "48",
            "--write-paths",
            "gather",
            "--presto",
            "off",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "gather" in out
    assert "ok" in out
