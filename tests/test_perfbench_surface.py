"""The library surface the benchmark reaches by name still exists.

A timed benchmark run wraps only the `CLOCKED` calls, so a renamed or
removed attribute among perfbench's other traced ones would fail only a
traced run. This imports perfbench's modules without changing them, checks
every traced name, runs one traced smoke pass of each workload and reads
its per-layer metrics and separation, and runs the set-up probe on each
workload's smoke inputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("module, attr, name", workloads.TRACED,
                         ids=[f"{m.__name__}.{a}" for m, a, _ in workloads.TRACED])
def test_every_traced_name_resolves(module, attr, name):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name}) is gone"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_pass_reports_no_problem(tmp_path, workload):
    inputs = gen.write_inputs(workload, 0, tmp_path / "in", smoke=True)
    bench = workloads.Bench(workload, inputs, tmp_path / "out", Tracer("t"), traced=True)
    with bench.installed():
        result = bench.run_pass()
    assert result.ops and result.problems
    assert [found for found in result.problems if found] == []
    # the names a traced run reports, whatever `separation` finds ("holds" may read false)
    assert sorted(bench.layer_metrics([result])) == sorted(PER_LAYER)
    assert isinstance(bench.separation([result])["holds"], bool)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_probe_loads_smoke_inputs(tmp_path, workload):
    gen.write_inputs(workload, 0, tmp_path / "in", smoke=True)
    subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(tmp_path / "in")],
                   check=True, timeout=120)
