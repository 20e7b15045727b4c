"""Lifetime-mission bench — per-policy degradation on one circuit.

Flies the same heavy-wear mission (cumulative actuations crossing the
Weibull eta inside the window) under the two policy extremes and
prints their degradation curves side by side: ``never`` (no BIST, no
repair — the first victim is permanent) against ``every-epoch-bist``
(scheduled detect-and-repair before each service interval).  The gap
between the curves is the lifetime the maintenance strategy buys,
which is the result the mission simulator exists to produce.

Gate: at the final epoch, scheduled BIST must hold yield at or above
the no-repair baseline.  Equality is legal (a wear regime too gentle
to fault anything degenerates both arms to 1.0) but an inversion can
only mean the policy machinery repaired designs into a worse state
than leaving them alone — a correctness bug, not noise, because both
arms consume identical fault trajectories from the same seeds.

Knobs:

    REPRO_BENCH_MISSION_EPOCHS     epochs per mission (default 4)
    REPRO_BENCH_MISSION_YEARS      device-years simulated (default 40)
    REPRO_BENCH_MISSION_CAMPAIGNS  aging trajectories (default 2)

Per-policy final yield / time-to-first-unrepairable / runtime become
the attrs of a ``bench.mission`` root span in the session's
``BENCH_run.jsonl``, so ``repro db trend`` tracks both the QoR of the
repair machinery and its cost across commits.
"""

import os
import time

import pytest

from repro.faults import MissionSpec, simulate_mission
from repro.netlist import load_circuit
from repro.vpr import run_flow

from conftest import BENCH_ARCH, BENCH_SCALE, record_bench

MISSION_EPOCHS = int(os.environ.get("REPRO_BENCH_MISSION_EPOCHS", "4"))
MISSION_YEARS = float(os.environ.get("REPRO_BENCH_MISSION_YEARS", "40"))
MISSION_CAMPAIGNS = int(os.environ.get("REPRO_BENCH_MISSION_CAMPAIGNS", "2"))

POLICIES = ("never", "every-epoch-bist")


@pytest.mark.benchmark(group="mission")
def test_mission_policy_gap(benchmark):
    netlist = load_circuit("tseng", scale=BENCH_SCALE)
    flow = run_flow(netlist, BENCH_ARCH, seed=1)
    assert flow.success, "clean tseng must route in the bench harness"

    def run():
        missions, seconds = {}, {}
        for policy in POLICIES:
            spec = MissionSpec(
                epochs=MISSION_EPOCHS, years=MISSION_YEARS,
                policy=policy, campaigns=MISSION_CAMPAIGNS, base_seed=0)
            t0 = time.perf_counter()
            missions[policy] = simulate_mission(flow, spec)
            seconds[policy] = time.perf_counter() - t0
        return missions, seconds

    missions, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    curves = {p: missions[p].degradation_curve() for p in POLICIES}

    print(f"\n=== Mission bench (tseng, scale {BENCH_SCALE}, "
          f"W = {flow.channel_width}, {MISSION_EPOCHS} epochs over "
          f"{MISSION_YEARS:g} device-years, "
          f"{MISSION_CAMPAIGNS} campaigns) ===")
    print(f"{'policy':>18s} {'yield/epoch':>24s} {'ttf.y':>7s} "
          f"{'repairs':>8s} {'seconds':>8s}")
    for policy in POLICIES:
        mission = missions[policy]
        ttf = mission.time_to_first_unrepairable
        trail = " ".join(f"{row['yield']:.2f}" for row in curves[policy])
        print(f"{policy:>18s} {trail:>24s} "
              f"{'-' if ttf is None else f'{ttf:g}':>7s} "
              f"{sum(t.repairs for t in mission.trajectories):8d} "
              f"{seconds[policy]:8.2f}")

    numbers = {}
    for policy in POLICIES:
        ttf = missions[policy].time_to_first_unrepairable
        numbers[f"final_yield_{policy}"] = curves[policy][-1]["yield"]
        numbers[f"ttf_years_{policy}"] = MISSION_YEARS if ttf is None else ttf
        numbers[f"t_{policy}"] = seconds[policy]
    record_bench("mission", bench_scale=BENCH_SCALE,
                 mission_epochs=MISSION_EPOCHS, mission_years=MISSION_YEARS,
                 mission_campaigns=MISSION_CAMPAIGNS, **numbers)

    assert curves["every-epoch-bist"][-1]["yield"] >= \
        curves["never"][-1]["yield"], (
            "scheduled BIST + repair ended the mission below the "
            "no-repair baseline — the repair ladder made things worse")
