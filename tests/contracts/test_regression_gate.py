"""The CI regression gates as tier-1 contracts.

A fresh ``repro flow`` run of the committed baseline's command is
diffed against ``benchmarks/baselines/flow_tseng_w56.jsonl``: seeded
QoR must not move at all, timing and leakage only within a 2%
floating-point band.  The same run must also pass the warehouse's
per-stage attribution gate.  CI runs this file with ``--basetemp
gate-tmp`` and uploads the gated run from there.
"""

import os

import pytest

from repro.cli import main

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "baselines", "flow_tseng_w56.jsonl")

#: The deterministic (seeded) measures, gated exactly; wall times are
#: not comparable across machines and are not gated here.
FAIL_ON = [
    "--fail-on", "route.wirelength>+0",
    "--fail-on", "route.iterations>+0",
    "--fail-on", "route.overused_nodes>+0",
    "--fail-on", "pack.clusters>+0",
    "--fail-on", "place.cost>+0",
    "--fail-on", "crossbar.relays_closed>+0",
    "--fail-on", "timing.critical_path_s>+2%",
    "--fail-on", "variant.CMOS_NEM_OPT.leakage_w>+2%",
]

#: Per-stage attribution bands: generous, because they compare wall
#: times against a run recorded on another machine.
STAGE_FAIL_ON = [
    "--fail-on", "route>+400%",
    "--fail-on", "place>+400%",
    "--fail-on", "pack>+400%",
    "--fail-on", "evaluate>+400%",
]


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gate") / "run.jsonl")
    assert main(["flow", "--circuit", "tseng", "--scale", "0.03",
                 "--width", "56", "--metrics-out", path]) == 0
    return path


def test_qor_matches_committed_baseline(fresh_run, capsys):
    assert main(["diff", BASELINE, fresh_run, "--changed", *FAIL_ON]) == 0
    assert "OK: 8 regression gate(s) passed" in capsys.readouterr().err


def test_stage_attribution_within_bands(fresh_run, tmp_path, capsys):
    db = str(tmp_path / "telemetry.sqlite")
    assert main(["db", "--db", db, "attribute", BASELINE, fresh_run,
                 *STAGE_FAIL_ON]) == 0
    assert "OK: 4 attribution gate(s) passed" in capsys.readouterr().err
