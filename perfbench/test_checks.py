"""The benchmark's own test: every correctness check counts a tampered output.

    python3 -m pytest -q perfbench/test_checks.py
"""

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import numpy as np  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402
from spans import END, NAME, START, Tracer, total  # noqa: E402
from svopt.cli import main  # noqa: E402
from svopt.perfmodel import RoundPlan, TileSchedule  # noqa: E402

PE = 24 * 24


def _model(tmp_path, mode):
    inputs = gen.write_inputs("decoder_paper", 0, tmp_path / "in", smoke=True)
    net = inputs["networks"]["dispnet"]
    argv = ["model", "--network", str(net), "--hardware", str(inputs["hardware"]),
            "--mode", mode, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    return tmp_path / "out" / f"report_{mode}.csv", json.loads(net.read_text())["layers"]


def _edit(path, layer, column, value):
    """Set one cell and shift the TOTAL row by the same amount, so only that layer is wrong."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    row = next(r for r in rows if r[0] == layer)
    delta = value - int(row[col])
    row[col] = str(value)
    rows[-1][col] = str(int(rows[-1][col]) + delta)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _failed(problems):
    return [name for name, found in problems.items() if found]


@pytest.mark.parametrize("mode", ["baseline", "convr", "ilar"])
def test_untampered_report_passes(tmp_path, mode):
    path, layers = _model(tmp_path, mode)
    assert _failed(checks.model_report(path, layers, mode, PE)) == []


def test_tampered_macs_fail_their_layer(tmp_path):
    path, layers = _model(tmp_path, "convr")
    _edit(path, "upconv3", "macs", checks.analytic_macs(layers[2], "convr") + 1)
    assert _failed(checks.model_report(path, layers, "convr", PE)) == ["upconv3"]


def test_latency_below_the_mac_bound_fails(tmp_path):
    path, layers = _model(tmp_path, "ilar")
    macs = checks.analytic_macs(layers[0], "ilar")
    _edit(path, "upconv5", "latency_cycles", -(-macs // PE) - 1)
    assert _failed(checks.model_report(path, layers, "ilar", PE)) == ["upconv5"]


def test_wrong_total_or_unreadable_report_fails_every_layer(tmp_path):
    path, layers = _model(tmp_path, "baseline")
    text = path.read_text()
    path.write_text(text.replace("TOTAL,baseline,", "TOTAL,baseline,1"))
    assert len(_failed(checks.model_report(path, layers, "baseline", PE))) == len(layers)
    path.write_text(text + "ragged,row\n")
    assert len(_failed(checks.model_report(path, layers, "baseline", PE))) == len(layers)


def test_input_channel_schedules_are_validated(tmp_path):
    inputs = gen.write_inputs("decoder_iaware", 0, tmp_path / "in", smoke=True)
    records = []
    with workloads.input_channel_weights(records):
        argv = ["model", "--network", str(inputs["networks"]["gcnet"]),
                "--hardware", str(inputs["hardware"]), "--mode", "ilar",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
    assert checks.schedules(records) == [[], []]
    layer, hw, schedule = records[0]
    first = schedule.rounds[0]
    short = RoundPlan(first.origin, first.tile, (first.filters[0] - 1,) + first.filters[1:])
    records[0] = (layer, hw, TileSchedule(schedule.beta, (short,) + schedule.rounds[1:]))
    assert [bool(found) for found in checks.schedules(records)] == [True, False]


@pytest.fixture(scope="module")
def ism_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ism")
    inputs = gen.write_inputs("ism_960", 5, tmp / "in", smoke=True)
    assert main(["ism", "--sequence", str(inputs["sequence"]), "--out-dir", str(tmp / "out")]) == 0
    return tmp / "out", inputs["scene"]


def _tamper_pixel(path, value):
    raw = bytearray(path.read_bytes())
    raw[-2:] = int(value).to_bytes(2, "big")  # last pixel of a 16-bit raster
    path.write_bytes(bytes(raw))


def test_ism_outputs_pass_and_tampering_is_counted(ism_run):
    out, scene = ism_run
    problems, scores = checks.ism_outputs(out, scene)
    assert not any(problems) and sorted(scores) == [1, 2, 3]
    nonkey, key = out / "disparity_0001.pgm", out / "disparity_0004.pgm"
    saved = nonkey.read_bytes(), key.read_bytes()
    try:
        _tamper_pixel(nonkey, 1)  # last column: only -1 and 0 are in range
        _tamper_pixel(key, 7)
        problems, _ = checks.ism_outputs(out, scene)
        assert [t for t, found in enumerate(problems) if found] == [1, 4]
    finally:
        nonkey.write_bytes(saved[0])
        key.write_bytes(saved[1])


def test_scene_ground_truth_matches_the_rendered_views():
    scene = gen.ism_scene(smoke=True)
    for t, (left, right) in enumerate(gen.render(scene, 3)):
        d = scene.disparity(t)
        ys, xs = np.nonzero(d >= 0)
        assert np.array_equal(left[ys, xs], right[ys, xs + d[ys, xs]])


def test_tail_keeps_ten_samples_above_it():
    value, pct, n = tail(list(range(100)))
    assert (value, pct, n) == (89, 90, 100)
    assert tail(list(range(15)))[0] == 4


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_pass_is_scaled_by_reference_runs_outside_its_timings(tmp_path, workload):
    inputs = gen.write_inputs(workload, 0, tmp_path / "in", smoke=True)
    bench = workloads.Bench(workload, inputs, tmp_path / "out", Tracer("t"), traced=False)
    with bench.installed():
        p = bench.run_pass()
    spans = bench.tracer.spans
    taken = [e - s for s, e in bench.samples]
    # one reference run ahead of every clocked call, none inside a timed call
    assert len(taken) == sum(s[NAME] in workloads.CLOCKED for s in spans) > 0
    timed = [s for s in spans if s[NAME] in workloads.CLOCKED - {"ism.ism_run"}]
    assert not [s for s in timed for a, _ in bench.samples if s[START] <= a <= s[END]]
    mains = [s for s in spans if s[NAME] == "cli.main"]
    assert p.seconds == pytest.approx(total(mains) - sum(taken), abs=1e-3)
    assert p.scale == pytest.approx(reference.scale(bench.kernels, bench.kernel_seconds))
    assert workloads.op_medians([p]) == pytest.approx([s * p.scale for _, s in p.ops])
