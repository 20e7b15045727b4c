"""Disabled-path cost of the live telemetry plane.

The streaming instrumentation added to the PathFinder iteration loop,
the Wmin probes and the repair ladder is gated the same way
everywhere: a `get_publisher()` hoisted out of the loop plus one
``pub.enabled`` attribute check per iteration.  This bench measures
that primitive directly, counts how many such checks a real routed
flow executes, and asserts the total is under 1% of the flow's wall
time — the "zero measurable overhead when disabled" contract from
DESIGN.md Sec. 5f, kept honest with a generous 10x margin on the
call-site count.
"""

import time

import pytest

from repro.obs.stream import NULL_PUBLISHER, get_publisher

from conftest import FlowCache, bench_suite_params

#: Tight timing loop iterations for the per-check measurement.
GUARD_OPS = 200_000


def _guard_loop(n):
    """The exact disabled-path pattern at every instrumented site."""
    pub = get_publisher()
    hits = 0
    for _ in range(n):
        if pub.enabled:
            hits += 1  # pragma: no cover - null publisher is disabled
    return hits


def _time_s(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="stream-overhead")
def test_disabled_path_under_one_percent(benchmark):
    assert get_publisher() is NULL_PUBLISHER

    # A private cache, so the timed call runs the flow: the
    # session-scoped `flow_cache` fixture is already warm when an
    # earlier bench ran this circuit.
    flows = FlowCache()
    params = bench_suite_params()[0]
    flow_wall_s = _time_s(flows.flow, params)
    flow = flows.flow(params)  # cached: the timed call built it

    guard_s = benchmark.pedantic(
        _time_s, args=(_guard_loop, GUARD_OPS), rounds=3, iterations=1)
    per_check_s = _time_s(_guard_loop, GUARD_OPS) / GUARD_OPS

    # Instrumented sites: one check per PathFinder iteration, per Wmin
    # probe, per repair rung — call it 10x the iteration count plus a
    # constant floor, a deliberate over-estimate.
    checks = 10 * max(flow.routing.iterations, 1) + 1000
    overhead_s = checks * per_check_s
    ratio = overhead_s / flow_wall_s

    print(f"\n=== Telemetry disabled-path overhead ===")
    print(f"flow wall: {flow_wall_s:.3f}s ({flow.routing.iterations} route "
          f"iterations), per-check {per_check_s * 1e9:.0f}ns, "
          f"{checks} checks budgeted -> {100 * ratio:.4f}% overhead")
    assert guard_s >= 0
    assert ratio < 0.01
