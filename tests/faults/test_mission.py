"""Tests for repro.faults.mission (epoch-stepped lifetime simulation)."""

import json

import pytest

from repro.faults import (
    MISSION_POLICIES,
    MissionSpec,
    RepairPolicy,
    aggregate_degradation,
    policy_name_valid,
    resolve_policy,
    run_mission,
    simulate_mission,
)
from repro.vpr.flow import run_flow

from .conftest import ARCH

#: Heavy wear (cumulative cycles cross eta within the mission) so every
#: policy sees faults inside four epochs — the regime where the
#: policies actually differ.
WEAR = dict(epochs=4, years=40.0, campaigns=2, base_seed=0)

#: `MissionResult.digest` of the `missions` fixture per policy.
GOLDEN_DIGESTS = {
    "every-epoch-bist":
        "f36add1640af02a2f4dc3106d736e3977f8c59b9e0e0e3212a5e4c456d8b6fcc",
    "never":
        "855a8ee4ffe4ee5d98894b948be5ff28741e6b3095e6ac19fb16a06e3873ffd3",
    "widen-early":
        "2aecad8cd2f5664aad618065788f7af1ea3fb80af34c9e42019861e273b86a60",
}


@pytest.fixture(scope="module")
def flow(netlist):
    result = run_flow(netlist, ARCH, seed=7)
    assert result.success
    return result


@pytest.fixture(scope="module")
def missions(flow):
    return {
        policy: simulate_mission(flow, MissionSpec(policy=policy, **WEAR))
        for policy in ("every-epoch-bist", "never", "widen-early")
    }


class TestPolicyParsing:
    def test_canonical_spellings(self):
        assert resolve_policy("never") == RepairPolicy("never")
        assert resolve_policy("on-failure").reactive is True
        assert resolve_policy("on-failure").bist_period is None
        scheduled = resolve_policy("every-epoch-bist")
        assert scheduled.bist_period == 1 and scheduled.reactive
        widen = resolve_policy("widen-early")
        assert widen.bist_period == 1 and widen.widen_threshold == 0.0

    def test_periodic_k_parses_its_cadence(self):
        assert resolve_policy("periodic-3").bist_period == 3
        assert resolve_policy("periodic-1").reactive is False

    def test_ready_policy_passes_through(self):
        policy = RepairPolicy("custom", bist_period=2)
        assert resolve_policy(policy) is policy

    @pytest.mark.parametrize("bad", ["sometimes", "periodic-0",
                                     "periodic-x", "periodic-"])
    def test_bad_spellings_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_policy(bad)
        assert not policy_name_valid(bad)

    def test_valid_names_agree_with_resolver(self):
        for name in ("never", "on-failure", "every-epoch-bist",
                     "widen-early", "periodic-2", "periodic-10"):
            assert policy_name_valid(name)
            resolve_policy(name)  # must not raise

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="bist_period"):
            RepairPolicy("x", bist_period=0)
        with pytest.raises(ValueError, match="widen_threshold"):
            RepairPolicy("x", widen_threshold=-0.1)
        with pytest.raises(ValueError, match="widen_step"):
            RepairPolicy("x", widen_step=0)


class TestSpecValidation:
    def test_defaults_are_legal(self):
        spec = MissionSpec()
        assert spec.epochs == 8 and spec.policy == "on-failure"

    @pytest.mark.parametrize("kwargs", [
        dict(epochs=0),
        dict(years=0.0),
        dict(campaigns=0),
        dict(cycles_per_year=-1.0),
        dict(eta=0.0),
        dict(policy="chaos"),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MissionSpec(**kwargs)

    def test_round_trip(self):
        spec = MissionSpec(policy="periodic-2", epochs=5, years=7.5)
        assert MissionSpec.from_dict(spec.to_dict()) == spec

    def test_policies_tuple(self):
        assert MISSION_POLICIES == ("never", "on-failure", "periodic-k",
                                    "every-epoch-bist", "widen-early")


class TestDeterminism:
    def test_same_inputs_bit_identical(self, flow):
        spec = MissionSpec(policy="every-epoch-bist", **WEAR)
        a = simulate_mission(flow, spec)
        b = simulate_mission(flow, spec)
        assert a.digest == b.digest
        assert a.degradation_curve() == b.degradation_curve()
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert [r.defect_digest for r in ta.records] == \
                   [r.defect_digest for r in tb.records]

    def test_run_mission_reuses_the_flow(self, netlist, flow, missions):
        again = run_mission(
            netlist, ARCH, MissionSpec(policy="never", **WEAR), flow=flow)
        assert again.digest == missions["never"].digest

    def test_golden_digests(self, missions):
        """Pinned digests: a change to wear accrual, fault sampling,
        BIST, victim detection or repair that alters any epoch record
        (wear is a float sum, so even its order) moves these."""
        assert {p: m.digest for p, m in missions.items()} == GOLDEN_DIGESTS
        assert [t.final_channel_width
                for t in missions["widen-early"].trajectories] == [50, 50]

    def test_different_policy_different_digest(self, missions):
        assert missions["never"].digest != missions["every-epoch-bist"].digest


class TestDegradationCurves:
    def test_curve_shape(self, missions):
        for mission in missions.values():
            curve = mission.degradation_curve()
            assert len(curve) == WEAR["epochs"]
            years = [row["device_years"] for row in curve]
            assert years == sorted(years) and years[-1] == WEAR["years"]
            for row in curve:
                assert 0.0 <= row["yield"] <= 1.0
                assert 0 <= row["dead"] <= WEAR["campaigns"]

    def test_fault_sets_grow_monotonically(self, missions):
        """Nested epochs: the simulator's own invariant, visible in
        the per-epoch records (new faults are never un-sampled)."""
        for mission in missions.values():
            for traj in mission.trajectories:
                assert all(r.new_defects >= 0 for r in traj.records)
                assert traj.records[0].defects <= traj.records[-1].defects

    def test_wear_actually_bites(self, missions):
        """The WEAR regime must produce faults, else every policy
        degenerates to `never` and the comparisons below are vacuous."""
        assert any(r.defects > 0
                   for t in missions["never"].trajectories
                   for r in t.records)

    def test_scheduled_bist_beats_no_repair(self, missions):
        """The headline claim: every-epoch BIST + repair keeps yield at
        or above the no-repair baseline at end of life."""
        bist = missions["every-epoch-bist"].degradation_curve()
        never = missions["never"].degradation_curve()
        assert bist[-1]["yield"] >= never[-1]["yield"]

    def test_never_policy_dies_permanently(self, missions):
        mission = missions["never"]
        assert mission.time_to_first_unrepairable is not None
        for traj in mission.trajectories:
            if traj.failed_epoch is not None:
                assert traj.repairs == 0 and traj.bist_runs == 0
                assert len(traj.records) == traj.failed_epoch
                assert not traj.records[-1].alive

    def test_widen_early_moves_to_a_wider_fabric(self, missions):
        mission = missions["widen-early"]
        assert any(t.final_channel_width > ARCH.channel_width
                   for t in mission.trajectories)

    def test_to_dict_is_json_shaped(self, missions):
        doc = missions["every-epoch-bist"].to_dict()
        json.dumps(doc)
        assert doc["circuit"] == "faulty"
        assert doc["digest"] and len(doc["trajectories"]) == WEAR["campaigns"]

    def test_unroutable_flow_rejected(self, netlist):
        with pytest.raises(RuntimeError, match="unroutable"):
            run_mission(netlist, ARCH, MissionSpec(), channel_width=4,
                        max_iterations=3)


class TestAggregation:
    @staticmethod
    def _record(epoch, healthy, alive, defects=1):
        return {
            "epoch": epoch, "healthy": healthy, "alive": alive,
            "defects": defects, "channel_width": 48,
            "wirelength_overhead": 0.0, "repair_stage": None, "bist": False,
        }

    def test_dead_trajectory_clamps_to_final_record(self):
        survivor = [self._record(e, True, True) for e in (1, 2, 3)]
        casualty = [self._record(1, False, False, defects=9)]
        rows = aggregate_degradation([survivor, casualty], epochs=3,
                                     years=30.0)
        assert [row["yield"] for row in rows] == [0.5, 0.5, 0.5]
        assert [row["dead"] for row in rows] == [1, 1, 1]
        # The casualty's last known hardware state is carried forward.
        assert all(row["mean_defects"] == 5.0 for row in rows)
        assert rows[-1]["device_years"] == 30.0

    def test_empty_input(self):
        assert aggregate_degradation([], epochs=3, years=1.0) == []
