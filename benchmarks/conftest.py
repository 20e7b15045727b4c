"""Shared infrastructure for the per-figure benchmark harness.

Every paper table/figure has one bench module (see DESIGN.md Sec. 5).
Benches both *time* the reproduction computation (pytest-benchmark)
and *print* the rows/series the paper reports, so running

    pytest benchmarks/ --benchmark-only -s

regenerates the evaluation.  P&R results are cached per circuit at
session scope because several figures share them.

A session-wide `repro.obs.Tracer` is auto-attached, so every flow the
benches run is traced; at session end the whole session is written as
one schema-v1 run, ``BENCH_run.jsonl`` (the records ``--metrics-out``
writes: manifest first, then one record per root span).  Benches that
time something other than a flow record their numbers as the attrs of
one zero-work root span (`record_bench`), so they reach the warehouse
as ``span.bench.<name>.<attr>`` keys:

    repro db --db telemetry.sqlite ingest BENCH_run.jsonl
    repro db --db telemetry.sqlite trend span.bench.mission.t_never

`repro report` and `repro diff` read the same file.

Environment knobs:

    REPRO_BENCH_SCALE   circuit shrink factor (default 0.02; the
                        paper's circuits at full size need hours in
                        pure Python — see DESIGN.md Sec. 6)
    REPRO_BENCH_MCNC    number of MCNC circuits to include (default 6)
    REPRO_BENCH_TELEMETRY      "0" disables the BENCH_run.jsonl output
    REPRO_BENCH_TELEMETRY_DIR  output directory (default: cwd)
"""

import os

import pytest

from repro.arch import ArchParams
from repro.netlist import ALTERA4_PARAMS, MCNC20_PARAMS, generate
from repro.obs import (
    Tracer,
    get_tracer,
    reset_tracer,
    run_manifest,
    set_tracer,
    telemetry_records,
    write_jsonl,
)
from repro.vpr import run_flow

#: Default shrink factor for the P&R figures.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
#: MCNC circuits included in suite-level benches.
BENCH_MCNC_COUNT = int(os.environ.get("REPRO_BENCH_MCNC", "6"))

#: Evaluation channel width for the scaled workloads (the scaled
#: counterpart of the paper's W = 118; see bench_channel_width.py for
#: the Wmin derivation that motivates it).
BENCH_ARCH = ArchParams(channel_width=64)


def bench_suite_params():
    """The circuits suite-level benches run: the 4 Altera circuits the
    paper reports individually plus the first BENCH_MCNC_COUNT of the
    20 largest MCNC circuits (geometric-mean series)."""
    mcnc = MCNC20_PARAMS[:BENCH_MCNC_COUNT]
    return [p.scaled(BENCH_SCALE) for p in list(ALTERA4_PARAMS) + list(mcnc)]


class FlowCache:
    """Lazy per-circuit pack/place/route cache shared by benches."""

    def __init__(self):
        self._flows = {}

    def flow(self, params):
        if params.name not in self._flows:
            netlist = generate(params)
            flow = run_flow(netlist, BENCH_ARCH, seed=1)
            if not flow.success:
                # One retry at a wider channel keeps the harness robust
                # to occasionally hard instances at the scaled W.
                flow = run_flow(
                    netlist, BENCH_ARCH, seed=1,
                    channel_width=int(BENCH_ARCH.channel_width * 1.3),
                )
            assert flow.success, f"{params.name} unroutable in bench harness"
            self._flows[params.name] = flow
        return self._flows[params.name]


@pytest.fixture(scope="session")
def flow_cache():
    return FlowCache()


@pytest.fixture(scope="session")
def bench_arch():
    return BENCH_ARCH


#: "0" disables the BENCH_run.jsonl telemetry output.
BENCH_TELEMETRY = os.environ.get("REPRO_BENCH_TELEMETRY", "1") != "0"
#: Where BENCH_run.jsonl lands.
BENCH_TELEMETRY_DIR = os.environ.get("REPRO_BENCH_TELEMETRY_DIR", ".")


def record_bench(name: str, **numbers: float) -> None:
    """Record a bench's numbers as the attrs of one zero-work root span
    ``bench.<name>`` in the session tracer (call it after timing)."""
    with get_tracer().span(f"bench.{name}", **numbers):
        pass


def _write_bench_telemetry(tracer: Tracer) -> None:
    """The whole session as one schema-v1 run, BENCH_run.jsonl."""
    manifest = run_manifest(
        arch=BENCH_ARCH,
        extra={"bench_scale": BENCH_SCALE, "bench_mcnc": BENCH_MCNC_COUNT},
    )
    write_jsonl(os.path.join(BENCH_TELEMETRY_DIR, "BENCH_run.jsonl"),
                telemetry_records(manifest, tracer))


@pytest.fixture(scope="session", autouse=True)
def bench_tracer():
    """Trace every flow the benches run; write BENCH_run.jsonl at exit."""
    tracer = Tracer()
    token = set_tracer(tracer)
    try:
        yield tracer
    finally:
        reset_tracer(token)
        if BENCH_TELEMETRY and tracer.roots:
            _write_bench_telemetry(tracer)
