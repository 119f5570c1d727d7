"""The three benchmark workloads: one pass of each, its checks and its metrics.

A pass runs the workload's svopt commands once through the CLI's `main`
in this process and checks every output. Timed runs wrap only the calls
that mark operation boundaries (a layer's solve and pricing, a frame's
refinement) and run a reference kernel before each of them, outside the
measured time, to scale the pass to a nominal host speed (reference.py);
traced runs wrap every public call listed in TRACED and are not scaled.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import gen
import numpy as np
import reference
import svopt.cli as cli
import svopt.ism as ism
import svopt.perfmodel as perfmodel
import svopt.scheduler as scheduler
from spans import END, ID, NAME, PARENT, START, Tracer, total

WORKLOADS = ("decoder_paper", "decoder_iaware", "ism_960")
MODES = {"decoder_paper": ("baseline", "convr", "ilar"),
         "decoder_iaware": ("convr", "ilar", "baseline")}
ALL_MODES = ("baseline", "convr", "ilar")
# reference kernels that do each workload's kind of work: decoder_iaware's time is
# split between perfmodel's Python objects and the knapsack's numpy rows
KERNELS = {"decoder_paper": ("objects",), "decoder_iaware": ("objects", "arrays"),
           "ism_960": ("arrays",)}

# (module, attribute, span name); the CLI's own bindings are wrapped where it imports them
TRACED = [
    (cli, "solve", "scheduler.solve"),
    (scheduler, "pack_round", "scheduler.pack_round"),
    (cli, "total_latency", "perfmodel.total_latency"),
    (perfmodel, "validate_schedule", "perfmodel.validate_schedule"),
    (scheduler, "validate_schedule", "perfmodel.validate_schedule"),
    (cli, "decompose_nd", "deconv.decompose_nd"),
    (cli, "ism_run", "ism.ism_run"),
    (ism, "estimate_motion", "ism.estimate_motion"),
    (ism, "gaussian_blur", "ism.gaussian_blur"),
    (ism, "reconstruct", "ism.reconstruct"),
    (ism, "propagate", "ism.propagate"),
    (ism, "scatter_pairs", "ism.scatter_pairs"),
    (ism, "refine", "ism.refine"),
    (cli, "frame_from_pgm", "pgm.frame_from_pgm"),
    (cli, "read_disparity", "pgm.read_disparity"),
    (cli, "write_disparity", "pgm.write_disparity"),
    (cli, "load_network", "formats.load_network"),
    (cli, "load_hardware", "formats.load_hardware"),
    (cli, "load_sequence", "formats.load_sequence"),
    (cli, "load_report", "formats.load_report"),
    (cli, "write_csv", "formats.write_csv"),
]
CLOCKED = {"scheduler.solve", "perfmodel.total_latency", "ism.ism_run", "ism.refine"}


@dataclass
class Pass:
    seconds: float
    ops: list[tuple]  # (operation, seconds); an operation recurs once per pass
    problems: list[list[str]]
    quality: float
    digest: str
    mode_seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(int))
    scale: float = 1.0  # reference.scale of the pass's kernel runs; 1 when unscaled


def op_medians(passes: list[Pass]) -> list[float]:
    """Each operation's median over the passes.

    A host slowdown that hits fewer than half of an operation's passes
    drops out, and unlike operations are never pooled.
    """
    by_op = defaultdict(list)
    for p in passes:
        for op, seconds in p.ops:
            by_op[op].append(seconds * p.scale)
    return [statistics.median(v) for v in by_op.values()]


def pass_seconds(passes: list[Pass]) -> float:
    """One pass: the operations' medians plus the median of the rest of a pass."""
    rest = statistics.median((p.seconds - sum(s for _, s in p.ops)) * p.scale for p in passes)
    return sum(op_medians(passes)) + rest


@contextmanager
def input_channel_weights(records: list):
    """Make `svopt model` size filters with input-channel-aware weights.

    The CLI cannot select this weight model, so the two calls it makes
    get include_input_channels=True here; this is the only place in the
    benchmark that knows how the weight model is chosen. Every schedule
    is kept in `records` for the checks.
    """
    solve, latency = cli.solve, cli.total_latency

    def iaware_solve(layer, kernel_set, hw, mode):
        schedule = solve(layer, kernel_set, hw, mode, include_input_channels=True)
        records.append((layer, hw, schedule))
        return schedule

    def iaware_latency(schedule, layer, kernel_set, hw):
        return latency(schedule, layer, kernel_set, hw, include_input_channels=True)

    cli.solve, cli.total_latency = iaware_solve, iaware_latency
    try:
        yield
    finally:
        cli.solve, cli.total_latency = solve, latency


def digest(out: Path, extra: bytes = b"") -> str:
    """sha256 over every emitted file (relative path and bytes) plus `extra`."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    h.update(extra)
    return h.hexdigest()


def schedule_bytes(records: list) -> bytes:
    return "\n".join(
        f"{layer.name} {s.beta} " + ";".join(f"{r.origin}{r.tile}{r.filters}" for r in s.rounds)
        for layer, _, s in records
    ).encode()


class Bench:
    """One workload in one process: inputs, wrapped calls, passes."""

    def __init__(self, workload: str, inputs: dict, out: Path, tracer: Tracer, traced: bool):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.tracer = tracer
        self.traced = traced
        self.records: list = []  # I-aware schedules of the current pass
        self.counts: dict[str, float] = defaultdict(float)  # filled by traced hooks
        self._motion_calls = 0
        self.kernels = KERNELS[workload]
        self.samples: list[tuple[float, float]] = []  # (start, end) of each reference run
        self.kernel_seconds: list[tuple[float, ...]] = []  # and each kernel's time in it
        if workload in MODES:
            self.layers = {name: json.loads(path.read_text())["layers"]
                           for name, path in inputs["networks"].items()}
            self.pe_count = math.prod(gen.HARDWARE["pe_array"])
        else:
            self.scene = inputs["scene"]
            self.nonkey = [t for t in range(self.scene.frames) if t % self.scene.pw]

    # ---- wrapping -------------------------------------------------------
    @contextmanager
    def installed(self):
        hooks = {
            "perfmodel.total_latency": self._on_report,
            "ism.scatter_pairs": self._on_guess,
            "ism.estimate_motion": self._on_motion,
            "pgm.frame_from_pgm": self._on_file,
            "pgm.read_disparity": self._on_file,
            "pgm.write_disparity": self._on_file,
        }
        for module, attr, name in TRACED:
            if self.traced:
                self.tracer.wrap(module, attr, name, hooks.get(name))
            elif name in CLOCKED:
                self.tracer.wrap(module, attr, name, before=self._sample)
        try:
            if self.workload == "decoder_iaware":
                with input_channel_weights(self.records):
                    yield
            else:
                yield
        finally:
            self.tracer.restore()

    def _on_report(self, args, report) -> None:
        mode = self.tracer.mode
        self.counts[f"rounds.{mode}"] += len(report.rounds)
        self.counts[f"modeled_cycles.{mode}"] += report.total_cycles
        self.counts[f"dram_elems.{mode}"] += (
            report.dram_ifmap + report.dram_weights + report.dram_ofmap)
        self.counts[f"compute_bound_rounds.{mode}"] += sum(
            1 for r in report.rounds if r.compute_cycles >= r.memory_cycles)

    def _on_guess(self, args, guess) -> None:
        d = guess.d
        xs = np.arange(d.shape[1])[None, :]
        self.counts["pixels"] += d.size
        self.counts["holes"] += int((d < 0).sum())
        self.counts["zero_guess"] += int(((d < 0) | (d > d.shape[1] - 1 - xs)).sum())

    def _on_motion(self, args, field) -> None:
        k, self._motion_calls = self._motion_calls, self._motion_calls + 1
        t = self.nonkey[(k // 2) % len(self.nonkey)]
        dy, dx, visible = self.scene.motion_truth(t, view=k % 2)
        self.counts["motion_pixels"] += int(visible.sum())
        self.counts["motion_exact"] += int(
            (visible & (field.dy == dy) & (field.dx == dx)).sum())

    def _on_file(self, args, result) -> None:
        for path in (Path(args[0]), Path(str(args[0]) + ".json")):
            if path.exists():
                self.counts["pgm_bytes"] += path.stat().st_size

    # ---- reference samples ----------------------------------------------
    def _sample(self) -> None:
        start = perf_counter()
        self.kernel_seconds.append(tuple(reference.timed(k) for k in self.kernels))
        self.samples.append((start, perf_counter()))

    def _less_samples(self, start: float, end: float) -> float:
        """end - start without the reference runs inside that interval."""
        return end - start - sum(e - s for s, e in self.samples if start <= s and e <= end)

    # ---- passes ---------------------------------------------------------
    def run_pass(self) -> Pass:
        first = len(self.samples)
        result = self._decoder_pass() if self.workload in MODES else self._ism_pass()
        if len(self.samples) > first:
            result.scale = reference.scale(self.kernels, self.kernel_seconds[first:])
        return result

    def _children(self, call: list, name: str) -> list[list]:
        return [s for s in self.tracer.spans[call[ID] + 1:]
                if s[PARENT] == call[ID] and s[NAME] == name]

    def _decoder_pass(self) -> Pass:
        hw = self.inputs["hardware"]
        result = Pass(0.0, [], [], 0.0, "", {m: 0.0 for m in MODES[self.workload]})
        useful = charged = 0
        for net, path in self.inputs["networks"].items():
            layers = self.layers[net]
            for mode in MODES[self.workload]:
                self.tracer.mode = mode
                argv = ["model", "--network", str(path), "--hardware", str(hw),
                        "--mode", mode, "--out-dir", str(self.out / net)]
                solved = len(self.records)
                start = perf_counter()
                with self.tracer.span("cli.main") as call:
                    code = cli.main(argv)
                result.mode_seconds[mode] += self._less_samples(start, perf_counter())
                solves = self._children(call, "scheduler.solve")
                prices = self._children(call, "perfmodel.total_latency")
                result.ops += [((net, mode, i), total(pair))
                               for i, pair in enumerate(zip(solves, prices))]
                if code != 0:
                    result.problems += [[f"svopt model exited {code}"]] * len(layers)
                    continue
                csv = self.out / net / f"report_{mode}.csv"
                found = list(checks.model_report(csv, layers, mode, self.pe_count).values())
                for problems, extra in zip(found, checks.schedules(self.records[solved:])):
                    problems += extra
                result.problems += found
                if any(found):
                    continue
                rows = {r["layer"]: r for r in checks.load_report(csv)[1]}
                for layer in layers:
                    useful += checks.analytic_macs(layer, "convr")
                    charged += int(rows[layer["name"]]["latency_cycles"]) * self.pe_count
                result.counts[f"modeled_cycles.{mode}"] += int(rows["TOTAL"]["latency_cycles"])
                result.counts[f"dram_elems.{mode}"] += sum(
                    int(rows["TOTAL"][c]) for c in checks.COUNT_COLUMNS[3:6])
        result.seconds = sum(result.mode_seconds.values())
        result.quality = 100.0 * useful / charged if charged else 0.0
        result.digest = digest(self.out, schedule_bytes(self.records))
        self.records.clear()
        return result

    def _ism_pass(self) -> Pass:
        self.tracer.mode = None
        argv = ["ism", "--sequence", str(self.inputs["sequence"]), "--out-dir", str(self.out)]
        start = perf_counter()
        with self.tracer.span("cli.main") as call:
            code = cli.main(argv)
        seconds = self._less_samples(start, perf_counter())
        ops = []
        for run in self._children(call, "ism.ism_run"):
            marks = [run[START]] + [s[END] for s in self._children(run, "ism.refine")]
            ops = list(zip(self.nonkey, (self._less_samples(a, b)
                                         for a, b in zip(marks, marks[1:]))))
        if code != 0:
            problems = [[f"svopt ism exited {code}"]] * self.scene.frames
            scores = {}
        else:
            problems, scores = checks.ism_outputs(self.out, self.scene)
        quality = statistics.fmean(scores.values()) if scores else 0.0
        return Pass(seconds, ops, problems, quality, digest(self.out))

    # ---- per-layer metrics of a traced run ------------------------------
    def layer_metrics(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        n = len(passes)
        tr = self.tracer
        selfs = tr.self_times()
        m: dict[str, tuple[float, str]] = {}
        for mode in ALL_MODES:
            m[f"scheduler.solve_s.{mode}"] = (total(tr.named("scheduler.solve", mode)) / n, "s")
            m[f"scheduler.pack_round_s.{mode}"] = (
                total(tr.named("scheduler.pack_round", mode)) / n, "s")
            m[f"scheduler.pack_round_calls.{mode}"] = (
                len(tr.named("scheduler.pack_round", mode)) / n, "count")
            m[f"perfmodel.total_latency_s.{mode}"] = (
                total(tr.named("perfmodel.total_latency", mode)) / n, "s")
            m[f"perfmodel.validate_s.{mode}"] = (
                total(tr.named("perfmodel.validate_schedule", mode)) / n, "s")
            rounds = self.counts[f"rounds.{mode}"]
            m[f"perfmodel.rounds.{mode}"] = (rounds / n, "count")
            m[f"perfmodel.modeled_cycles.{mode}"] = (
                self.counts[f"modeled_cycles.{mode}"] / n, "cycles")
            m[f"perfmodel.dram_elems.{mode}"] = (self.counts[f"dram_elems.{mode}"] / n, "elems")
            m[f"perfmodel.compute_bound_share.{mode}"] = (
                self.counts[f"compute_bound_rounds.{mode}"] / rounds if rounds else 0.0,
                "fraction")
        m["deconv.decompose_s"] = (total(tr.named("deconv.decompose_nd")) / n, "s")
        frames = sum(len(p.ops) for p in passes) if self.workload == "ism_960" else 0
        per_frame = 1 / frames if frames else 0.0
        motion_self = sum(v for (name, _), v in selfs.items() if name == "ism.estimate_motion")
        m["ism.blur_s"] = (total(tr.named("ism.gaussian_blur")) * per_frame, "s")
        m["ism.motion_s"] = (motion_self * per_frame, "s")
        m["ism.propagate_s"] = (per_frame * sum(
            total(tr.named(f"ism.{f}")) for f in ("reconstruct", "propagate", "scatter_pairs")),
            "s")
        m["ism.refine_s"] = (total(tr.named("ism.refine")) * per_frame, "s")
        ops = 0
        if frames:
            ops = ism.nonkey_operation_count(self.scene.width, self.scene.height)
        frame_p50 = statistics.median(o for p in passes for _, o in p.ops) if frames else 0.0
        m["ism.analytic_ops"] = (ops, "ops")
        m["ism.analytic_ops_per_s"] = (ops / frame_p50 if frame_p50 else 0.0, "ops/s")
        c = self.counts
        m["ism.hole_frac"] = (c["holes"] / c["pixels"] if c["pixels"] else 0.0, "fraction")
        m["ism.zero_guess_frac"] = (
            c["zero_guess"] / c["pixels"] if c["pixels"] else 0.0, "fraction")
        m["ism.motion_exact_frac"] = (
            c["motion_exact"] / c["motion_pixels"] if c["motion_pixels"] else 0.0, "fraction")
        m["pgm.read_s"] = (
            (total(tr.named("pgm.frame_from_pgm")) + total(tr.named("pgm.read_disparity"))) / n,
            "s")
        m["pgm.write_s"] = (total(tr.named("pgm.write_disparity")) / n, "s")
        m["pgm.bytes"] = (c["pgm_bytes"] / n, "B")
        m["formats.load_s"] = (sum(total(tr.named(f"formats.load_{k}")) for k in
                                   ("network", "hardware", "sequence", "report")) / n, "s")
        m["formats.write_s"] = (total(tr.named("formats.write_csv")) / n, "s")
        m["trace.run_s"] = (pass_seconds(passes), "s")
        m["trace.spans"] = (len(tr.spans) / n, "count")
        return m

    def separation(self, passes: list[Pass]) -> dict:
        """Whether the traced pass spends its time where the workload was designed to."""
        selfs = self.tracer.self_times()
        by_name = defaultdict(float)
        for (name, _), v in selfs.items():
            by_name[name] += v
        perf_self = (by_name["perfmodel.total_latency"]
                     + by_name["perfmodel.validate_schedule"]) / len(passes)
        pack = by_name["scheduler.pack_round"] / len(passes)
        if self.workload == "decoder_paper":
            return {"perfmodel_self_s": perf_self, "pack_round_s": pack,
                    "holds": perf_self > pack}
        if self.workload == "decoder_iaware":
            return {"perfmodel_self_s": perf_self, "pack_round_s": pack,
                    "holds": pack > perf_self}
        frames = sum(len(p.ops) for p in passes)
        share = (by_name["ism.estimate_motion"] + by_name["ism.refine"]) / sum(
            o for p in passes for _, o in p.ops)
        return {"motion_plus_refine_share_of_nonkey_frames": share, "frames": frames,
                "holds": share > 0.5}
