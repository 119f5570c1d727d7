import hashlib
import json
import re
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from svopt.cli import main
from svopt.formats import (
    SpecValidationError,
    load_hardware,
    load_network,
    load_report,
    load_schedule,
    load_sequence,
    load_transform_manifest,
    save_network,
)
from svopt.ism import DisparityMap, Frame
from svopt.perfmodel import RoundPlan
from svopt.pgm import frame_from_pgm, frame_to_pgm, read_disparity, write_disparity
import ism_oracle
from conftest import make_sequence, make_two_plane_sequence


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


NETWORK = {
    "format_version": 1,
    "layers": [
        {"name": "conv1", "kind": "conv", "kernel": [3, 3], "in_channels": 4,
         "out_channels": 8, "ifmap": [24, 24], "stride": 1},
        {"name": "up1", "kind": "deconv", "kernel": [5, 5], "in_channels": 8,
         "out_channels": 4, "ifmap": [12, 12], "stride": 2},
    ],
}

HARDWARE = {"format_version": 1, "pe_array": [8, 8], "buffer_capacity": 8192, "bandwidth": 8}

# one well-formed file of each kind that names its records
VALID = {
    "network": NETWORK,
    "schedule": {"format_version": 2, "layer": "up1", "mode": "ilar", "beta": 1,
                 "ifmap": [12, 12], "tile": [12, 12], "parts": [{"filters": [4, 4, 4, 4]}]},
    "sequence": {"format_version": 1, "pw": 2, "frames": [
        {"left": "l0.pgm", "right": "r0.pgm", "key_disparity": "k0.pgm"}]},
}


@pytest.fixture
def net_path(tmp_path):
    return write_json(tmp_path / "net.json", NETWORK)


@pytest.fixture
def hw_path(tmp_path):
    return write_json(tmp_path / "hw.json", HARDWARE)


class TestIngest:
    def test_minimal_network(self, tmp_path):
        path = write_json(
            tmp_path / "one.json",
            {"format_version": 1, "layers": [NETWORK["layers"][0]]},
        )
        layers = load_network(path)
        assert len(layers) == 1
        assert layers[0].name == "conv1"

    def test_deconv_stride_three_rejected(self, tmp_path):
        bad = {"format_version": 1, "layers": [dict(NETWORK["layers"][1], stride=3)]}
        path = write_json(tmp_path / "bad.json", bad)
        with pytest.raises(SpecValidationError, match="stride"):
            load_network(path)

    def test_duplicate_names_rejected(self, tmp_path):
        bad = {"format_version": 1, "layers": [NETWORK["layers"][0], dict(NETWORK["layers"][0])]}
        path = write_json(tmp_path / "dup.json", bad)
        with pytest.raises(SpecValidationError, match="duplicates"):
            load_network(path)

    def test_channel_chain_violation_named(self, tmp_path):
        bad = {"format_version": 1,
               "layers": [NETWORK["layers"][0], dict(NETWORK["layers"][1], in_channels=5)]}
        path = write_json(tmp_path / "chain.json", bad)
        with pytest.raises(SpecValidationError, match="up1.*in_channels"):
            load_network(path)

    def test_unknown_field_only_rejected_in_strict_mode(self, tmp_path):
        layers = [dict(NETWORK["layers"][0], surprise=1)]
        path = write_json(tmp_path / "extra.json", {"format_version": 1, "layers": layers})
        load_network(path)  # lenient by default
        with pytest.raises(SpecValidationError, match="unknown"):
            load_network(path, strict=True)

    def test_network_roundtrip(self, tmp_path, net_path):
        layers = load_network(net_path)
        out = tmp_path / "again.json"
        save_network(out, layers)
        assert load_network(out) == layers

    def test_hardware_with_infinite_bandwidth(self, tmp_path):
        path = write_json(tmp_path / "hw.json", dict(HARDWARE, bandwidth="inf"))
        hw = load_hardware(path)
        assert hw.bandwidth == float("inf")

    def test_hardware_single_buffered(self, tmp_path):
        path = write_json(tmp_path / "hw.json", dict(HARDWARE, double_buffered=False))
        assert load_hardware(path, strict=True).double_buffered is False

    @pytest.mark.parametrize("field, value", [
        ("double_buffered", "false"),
        ("double_buffered", 0),
        ("buffer_capacity", 1.5),
        ("buffer_capacity", "8192"),
        ("buffer_capacity", True),
        ("pe_array", [8.5, 8]),
        ("pe_array", [8, "8"]),
        ("pe_array", [8]),
        ("bandwidth", True),
        ("bandwidth", "8"),
        ("format_version", "two"),
        ("format_version", 2),
    ])
    def test_hardware_field_of_wrong_json_type_rejected(self, tmp_path, net_path, field, value):
        path = write_json(tmp_path / "hw.json", dict(HARDWARE, **{field: value}))
        for strict in (False, True):
            with pytest.raises(SpecValidationError, match=f"field '{field}'"):
                load_hardware(path, strict)
        assert main(["model", "--network", net_path, "--hardware", path,
                     "--mode", "ilar", "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("kind, at, field, value", [
        ("network", 1, "stride", 2.9),
        ("network", 1, "stride", True),
        ("network", 0, "in_channels", 4.7),
        ("network", 0, "out_channels", "8"),
        ("network", 0, "out_channels", None),
        ("network", 1, "kernel", [4.9, 4]),
        ("network", 0, "ifmap", 24),
        ("network", 0, "name", ["conv1"]),
        ("network", None, "layers", 5),
        ("network", None, "layers", [5]),
        ("network", None, "format_version", 99),
        ("network", None, "format_version", True),
        ("schedule", None, "format_version", 1.0),
        ("sequence", None, "format_version", "1"),
        ("schedule", None, "beta", 0.7),
        ("schedule", None, "layer", 5),
        ("schedule", None, "format_version", 1),
        ("schedule", None, "tile", [0.5, 12]),
        ("schedule", None, "ifmap", 12),
        ("schedule", 0, "filters", [True, 1, 1, 1]),
        ("schedule", None, "parts", {}),
        ("sequence", None, "pw", 2.9),
        ("sequence", None, "pw", "3"),
        ("sequence", None, "frames", 5),
        ("sequence", 0, "left", 5),
        ("sequence", 0, "key_disparity", ["k0.pgm"]),
    ])
    def test_field_of_wrong_json_type_rejected(self, tmp_path, hw_path, kind, at, field, value):
        doc = json.loads(json.dumps(VALID[kind]))
        records = {"network": "layers", "schedule": "parts", "sequence": "frames"}[kind]
        (doc if at is None else doc[records][at])[field] = value
        path = write_json(tmp_path / f"{kind}.json", doc)
        loader, command = {
            "network": (load_network, ["model", "--network", path, "--hardware", hw_path,
                                       "--mode", "ilar"]),
            "schedule": (lambda p, strict: load_schedule(p), None),
            "sequence": (load_sequence, ["ism", "--sequence", path]),
        }[kind]
        for strict in (False, True):
            with pytest.raises(SpecValidationError, match=f"field '{field}' must be"):
                loader(path, strict)
        if command is not None:  # no subcommand reads a schedule file
            assert main(command + ["--out-dir", str(tmp_path / "o")]) == 2

    def test_optional_sequence_paths_may_be_null(self, tmp_path):
        frame = dict(VALID["sequence"]["frames"][0], key_disparity=None, gt_disparity=None)
        path = write_json(tmp_path / "seq.json", dict(VALID["sequence"], frames=[frame]))
        entry, = load_sequence(path, strict=True).frames
        assert entry.key_disparity is None and entry.gt_disparity is None

    def test_ingest_pairs_network_and_hardware(self, net_path, hw_path):
        layers, hw = load_network(net_path), load_hardware(hw_path)
        assert [l.name for l in layers] == ["conv1", "up1"]
        assert hw.pe_count == 64


class TestScheduleAndModel:
    def test_model_emits_one_row_per_layer_per_mode(self, tmp_path, net_path, hw_path):
        rows_by_mode = {}
        for mode in ("baseline", "convr", "ilar"):
            out = tmp_path / mode
            assert main(["model", "--network", net_path, "--hardware", hw_path,
                         "--mode", mode, "--out-dir", str(out)]) == 0
            header, rows = load_report(out / f"report_{mode}.csv")
            assert header[0] == "layer"
            assert [r["layer"] for r in rows] == ["conv1", "up1", "TOTAL"]
            rows_by_mode[mode] = {r["layer"]: r for r in rows}
        base = int(rows_by_mode["baseline"]["up1"]["latency_cycles"])
        convr = int(rows_by_mode["convr"]["up1"]["latency_cycles"])
        ilar = int(rows_by_mode["ilar"]["up1"]["latency_cycles"])
        assert convr < base  # the transformation removes zero-operand work
        assert ilar <= convr
        # conv layers are untouched by deconvolution modes
        assert (rows_by_mode["baseline"]["conv1"]["latency_cycles"]
                == rows_by_mode["ilar"]["conv1"]["latency_cycles"])

    def test_total_row_is_column_sum(self, tmp_path, net_path, hw_path):
        out = tmp_path / "out"
        main(["model", "--network", net_path, "--hardware", hw_path,
              "--mode", "convr", "--out-dir", str(out)])
        _, rows = load_report(out / "report_convr.csv")
        total = rows[-1]
        for column in ("latency_cycles", "macs", "dram_ofmap_elems"):
            assert int(total[column]) == sum(int(r[column]) for r in rows[:-1])

    def test_schedule_files_reingest_losslessly(self, tmp_path, net_path, hw_path):
        out = tmp_path / "out"
        assert main(["schedule", "--network", net_path, "--hardware", hw_path,
                     "--mode", "ilar", "--out-dir", str(out)]) == 0
        for name in ("conv1", "up1"):
            layer_name, mode, schedule = load_schedule(out / f"schedule_{name}_ilar.json")
            assert layer_name == name
            assert mode == "ilar"
            assert schedule.n_rounds >= 1

    def test_round_list_schedule_file_is_rejected_naming_its_version(self, tmp_path):
        old = {"format_version": 1, "layer": "up1", "mode": "ilar", "beta": 1, "rounds": [
            {"origin": [0, 0], "tile": [12, 12], "filters": [4, 4, 4, 4]}]}
        path = write_json(tmp_path / "old.json", old)
        with pytest.raises(SpecValidationError, match="field 'format_version' must be 2, got 1"):
            load_schedule(path)

    def test_byte_identical_reruns(self, tmp_path, net_path, hw_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(["schedule", "--network", net_path, "--hardware", hw_path,
                  "--mode", "ilar", "--out-dir", str(out)])
            main(["model", "--network", net_path, "--hardware", hw_path,
                  "--mode", "ilar", "--out-dir", str(out)])
        for rel in ("schedule_up1_ilar.json", "schedule_conv1_ilar.json", "report_ilar.csv"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_infeasible_hardware_exit_code(self, tmp_path, net_path):
        hw = write_json(tmp_path / "tiny.json",
                        dict(HARDWARE, buffer_capacity=8))
        assert main(["model", "--network", net_path, "--hardware", hw,
                     "--mode", "ilar", "--out-dir", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("mode", ["baseline", "convr", "ilar"])
    def test_kernel_of_extent_2n_plus_1_models_in_every_mode(self, tmp_path, hw_path, mode):
        # a 7-row kernel over 3 ifmap rows leaves one ofmap row, which only the
        # odd-row sub-kernels own; the even-row ones (4 rows) are not scheduled
        net = network_with(tmp_path, kernel=[7, 3], ifmap=[3, 3])
        assert run_cli("model", "--network", net, "--hardware", hw_path, "--mode", mode,
                       "--out-dir", tmp_path / "o", "--strict") == 0
        _, rows = load_report(tmp_path / "o" / f"report_{mode}.csv")
        assert [r["layer"] for r in rows] == ["up1", "TOTAL"]

    def test_bad_input_exit_code(self, tmp_path, hw_path):
        missing = str(tmp_path / "nope.json")
        assert main(["model", "--network", missing, "--hardware", hw_path,
                     "--mode", "ilar", "--out-dir", str(tmp_path / "o")]) == 2


class TestTransform:
    def test_manifest_structure_and_reingest(self, tmp_path, net_path):
        out = tmp_path / "out"
        assert main(["transform", "--network", net_path, "--out-dir", str(out)]) == 0
        manifest = load_transform_manifest(out / "transform.json")
        by_name = {rec["name"]: rec for rec in manifest["layers"]}
        assert by_name["conv1"]["sub_kernels"] == ()
        subs = by_name["up1"]["sub_kernels"]
        assert len(subs) == 4
        assert [s["dims"] for s in subs] == [(3, 3), (2, 3), (3, 2), (2, 2)]
        assert [s["delta"] for s in subs] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_empty_marks_exactly_the_slices_that_own_no_output(self, tmp_path):
        # K = 7 = 2*3 + 1 over ifmap 3 leaves one ofmap row, at parity 0: the
        # even-row slices (phases 0 and 2) are not empty, yet own no output
        net = network_with(tmp_path, kernel=[7, 3], ifmap=[3, 3])
        assert run_cli("transform", "--network", net, "--out-dir", tmp_path / "o") == 0
        layer, = load_transform_manifest(tmp_path / "o" / "transform.json")["layers"]
        subs = layer["sub_kernels"]
        assert [s["dims"] for s in subs] == [(4, 2), (3, 2), (4, 1), (3, 1)]
        assert [s["empty"] for s in subs] == [True, False, True, False]

    @pytest.mark.parametrize("layer, match", [
        ({}, "layer 0: missing field(s) ['kernel', 'kind', 'name', 'sub_kernels']"),
        ({"name": "up1", "kind": "deconv", "kernel": [4, 4], "sub_kernels": [{"phase": "x"}]},
         "layer 0 sub-kernel 0: missing field(s) ['delta', 'dims', 'empty', 'ofmap_parity']"),
        ({"name": "up1", "kind": "deconv", "kernel": [4, 4], "sub_kernels": [
            {"phase": "x", "delta": [0, 0], "dims": [2, 2], "ofmap_parity": [1, 1],
             "empty": False}]},
         "layer 0 sub-kernel 0: field 'phase' must be a JSON integer"),
        ({"name": "up1", "kind": "deconv", "kernel": "4x4", "sub_kernels": []},
         "layer 0: field 'kernel' must be a list of JSON integers"),
    ])
    def test_malformed_layer_and_sub_kernel_records_rejected(self, tmp_path, layer, match):
        doc = {"format_version": 1, "with_border": True, "layers": [layer]}
        path = write_json(tmp_path / "transform.json", doc)
        with pytest.raises(SpecValidationError, match=re.escape(f"{path}: {match}")):
            load_transform_manifest(path)

    @pytest.mark.parametrize("field, value", [("with_border", "yes"), ("layers", 5)])
    def test_manifest_field_of_wrong_json_type_rejected(self, tmp_path, field, value):
        doc = {"format_version": 1, "with_border": True, "layers": [], field: value}
        path = write_json(tmp_path / "transform.json", doc)
        with pytest.raises(SpecValidationError) as info:
            load_transform_manifest(path)
        assert str(info.value).startswith(f"{path}: field '{field}' must be ")


class TestIsmCommand:
    def build_sequence(self, tmp_path, panorama, n_frames=4, motion=(0, 1)):
        frames, gt = make_sequence(panorama, n_frames, 48, 64, disparity=4, motion=motion)
        records = []
        for i, (left, right) in enumerate(frames):
            lp, rp = tmp_path / f"l{i}.pgm", tmp_path / f"r{i}.pgm"
            frame_to_pgm(lp, left, maxval=65535)
            frame_to_pgm(rp, right, maxval=65535)
            record = {"left": lp.name, "right": rp.name}
            gt_path = tmp_path / f"g{i}.pgm"
            write_disparity(gt_path, gt)
            record["gt_disparity"] = gt_path.name
            if i % 2 == 0:
                key_path = tmp_path / f"k{i}.pgm"
                write_disparity(key_path, gt)
                record["key_disparity"] = key_path.name
            records.append(record)
        manifest = tmp_path / "seq.json"
        write_json(manifest, {"format_version": 1, "pw": 2, "frames": records})
        return manifest, gt

    def test_emits_one_map_and_metric_row_per_frame(self, tmp_path, panorama):
        manifest, gt = self.build_sequence(tmp_path, panorama)
        out = tmp_path / "out"
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(out),
                     "--pw", "2"]) == 0
        maps = sorted(out.glob("disparity_*.pgm"))
        assert len(maps) == 4
        _, rows = load_report(out / "metrics.csv")
        assert [r["frame"] for r in rows] == ["0", "1", "2", "3"]
        assert [r["is_key"] for r in rows] == ["1", "0", "1", "0"]
        for row in rows:
            assert float(row["three_pixel_error_pct"]) >= 98.0
        first = read_disparity(maps[0])
        assert np.array_equal(first.d, gt.d)  # key frames pass through

    def test_maps_match_the_oracle_on_a_two_plane_scene(self, tmp_path, panorama):
        # a D=16 wall panning (1, 2) px per frame behind a D=40 box moving (0, 3) px;
        # --pw 3 overrides the manifest's pw=2, so frames 1, 2, 4 and 5 are propagated
        frames, truths = make_two_plane_sequence(
            panorama, 6, 96, 160, 16, 40, (20, 30, 70, 80), (1, 2), (0, 3), origin=(20, 60))
        records = []
        for i, (left, right) in enumerate(frames):
            record = {"left": f"l{i}.pgm", "right": f"r{i}.pgm", "key_disparity": f"k{i}.pgm"}
            frame_to_pgm(tmp_path / record["left"], left, maxval=65535)
            frame_to_pgm(tmp_path / record["right"], right, maxval=65535)
            write_disparity(tmp_path / record["key_disparity"], truths[i])
            records.append(record)
        manifest = write_json(tmp_path / "seq.json", {"format_version": 1, "pw": 2, "frames": records})
        out = tmp_path / "out"
        assert main(["ism", "--sequence", manifest, "--out-dir", str(out), "--pw", "3"]) == 0
        # the oracle sees the frames as the CLI reads them back, quantized to 16 bits
        read = [(frame_from_pgm(tmp_path / r["left"]), frame_from_pgm(tmp_path / r["right"]))
                for r in records]
        expected = ism_oracle.ism_run(read, {0: truths[0], 3: truths[3]}, 3)
        written = sorted(out.glob("disparity_*.pgm"))
        assert len(written) == 6
        for path, dmap in zip(written, expected):
            assert np.array_equal(read_disparity(path).d, dmap.d)
        assert all((dmap.d >= 38).any() for dmap in expected)

    def test_missing_key_disparity_is_input_error(self, tmp_path, panorama):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        assert main(["ism", "--sequence", str(manifest), "--out-dir",
                     str(tmp_path / "o"), "--pw", "3"]) == 2  # frame 3 lacks a key map

    def test_block_option_is_rejected(self, tmp_path, panorama, capsys):
        # the refinement runs one configuration, `ism.REFINE_BLOCK` and `REFINE_RADIUS`
        manifest, _ = self.build_sequence(tmp_path, panorama)
        with pytest.raises(SystemExit) as info:
            main(["ism", "--sequence", str(manifest), "--out-dir", str(tmp_path / "o"),
                  "--block", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --block 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["r1.pgm", "k2.pgm", "g3.pgm"])
    def test_mis_sized_raster_rejected_before_propagation(self, tmp_path, panorama, capsys,
                                                          name):
        # a right view, key map or ground truth one column wider than its left view
        manifest, _ = self.build_sequence(tmp_path, panorama)
        path = tmp_path / name
        if name.startswith("r"):
            frame_to_pgm(path, Frame(np.zeros((48, 65))))
        else:
            write_disparity(path, DisparityMap(np.zeros((48, 65))))
        out = tmp_path / "out"
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: raster is 65x48" in err
        assert f"left raster {tmp_path / ('l' + name[1:])} is 64x48" in err
        assert not out.exists()

    def test_frame_sized_unlike_frame_0_rejected_before_propagation(self, tmp_path, panorama,
                                                                     capsys):
        # frame 2 is consistent in itself but four columns narrower than frame 0
        manifest, gt = self.build_sequence(tmp_path, panorama)
        for name in ("l2.pgm", "r2.pgm"):
            frame_to_pgm(tmp_path / name, Frame(np.zeros((48, 60))))
        for name in ("k2.pgm", "g2.pgm"):
            write_disparity(tmp_path / name, DisparityMap(gt.d[:, :60]))
        out = tmp_path / "out"
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'l2.pgm'}: raster is 60x48" in err
        assert f"frame 0's left raster {tmp_path / 'l0.pgm'} is 64x48" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["left", "right", "key_disparity", "gt_disparity"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_empty_path_is_input_error(self, tmp_path, panorama, capsys, field, strict):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        doc = json.loads(manifest.read_text())
        doc["frames"][2][field] = ""
        write_json(manifest, doc)
        out = tmp_path / "out"
        args = ["ism", "--sequence", str(manifest), "--out-dir", str(out)]
        assert main(args + ["--strict"] * strict) == 2
        assert f"{manifest}: frame 2: field '{field}' is an empty path" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["left", "right", "key_disparity", "gt_disparity"])
    def test_directory_path_is_input_error(self, tmp_path, panorama, capsys, field):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        (tmp_path / "sub").mkdir()
        doc = json.loads(manifest.read_text())
        doc["frames"][2][field] = "sub"
        write_json(manifest, doc)
        out = tmp_path / "out"
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: frame 2: field '{field}' names a directory ({tmp_path / 'sub'})" in err
        assert not out.exists()

    @pytest.mark.parametrize("meta", [{"format_version": 1, "scale": 0}, [1]])
    def test_bad_disparity_sidecar_is_input_error(self, tmp_path, panorama, meta):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        write_json(tmp_path / "k0.pgm.json", meta)
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2

    def test_negative_pgm_sample_is_input_error(self, tmp_path, panorama, capsys):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        key = tmp_path / "k0.pgm"
        key.write_text("P2\n64 48\n65535\n" + " ".join(["-3"] * 64 * 48) + "\n")
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{key}: negative sample -3" in capsys.readouterr().err

    def test_non_integer_pgm_token_is_input_error(self, tmp_path, panorama, capsys):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        left = tmp_path / "l1.pgm"
        left.write_text("P2\n64 48\n65535\n" + " ".join(["1.5"] * 64 * 48) + "\n")
        assert main(["ism", "--sequence", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{left}: PGM token '1.5' is not" in capsys.readouterr().err

    def test_sequence_paths_resolve_relative_to_manifest(self, tmp_path, panorama):
        manifest, _ = self.build_sequence(tmp_path, panorama)
        spec = load_sequence(manifest)
        assert spec.pw == 2
        assert all(entry.left.exists() and entry.right.exists() for entry in spec.frames)


class TestReport:
    def run_models(self, tmp_path, net_path, hw_path, modes):
        paths = {}
        for mode in modes:
            out = tmp_path / mode
            main(["model", "--network", net_path, "--hardware", hw_path,
                  "--mode", mode, "--out-dir", str(out)])
            paths[mode] = out / f"report_{mode}.csv"
        return paths

    def test_identical_runs_speedup_one(self, tmp_path, net_path, hw_path):
        paths = self.run_models(tmp_path, net_path, hw_path, ["convr"])
        out = tmp_path / "cmp"
        assert main(["report", "--run", f"a={paths['convr']}", "--run", f"b={paths['convr']}",
                     "--baseline", "a", "--out-dir", str(out)]) == 0
        _, rows = load_report(out / "comparison.csv")
        assert all(row["speedup_b"] == "1.000000" for row in rows)

    def test_svg_flag_does_not_change_csv(self, tmp_path, net_path, hw_path):
        paths = self.run_models(tmp_path, net_path, hw_path, ["baseline", "ilar"])
        plain, with_svg = tmp_path / "plain", tmp_path / "svg"
        args = ["report", "--run", f"base={paths['baseline']}",
                "--run", f"ilar={paths['ilar']}", "--baseline", "base"]
        assert main(args + ["--out-dir", str(plain)]) == 0
        assert main(args + ["--out-dir", str(with_svg), "--svg"]) == 0
        assert (plain / "comparison.csv").read_bytes() == (with_svg / "comparison.csv").read_bytes()
        assert (with_svg / "comparison.svg").exists()
        assert not (plain / "comparison.svg").exists()

    def test_unknown_baseline_rejected(self, tmp_path, net_path, hw_path):
        paths = self.run_models(tmp_path, net_path, hw_path, ["convr"])
        assert main(["report", "--run", f"a={paths['convr']}", "--baseline", "zzz",
                     "--out-dir", str(tmp_path / "o")]) == 2


def run_cli(command, *args):
    return main([command, *map(str, args)])


def network_with(tmp_path, **changes):
    """NETWORK's deconv layer alone, with `changes` applied."""
    layer = dict(NETWORK["layers"][1], **changes)
    return write_json(tmp_path / "net.json", {"format_version": 1, "layers": [layer]})


class TestMalformedInputs:
    """Inputs the emitted files or the model cannot carry fail with exit 2 and name the
    file plus the field, column, layer or run, instead of exiting 0, 3 or 4."""

    @pytest.mark.parametrize("changes, named", [
        ({"kind": "conv", "stride": 1, "kernel": [5, 5], "ifmap": [3, 3]},
         "layer up1: kernel (5, 5) does not fit inside ifmap (3, 3)"),
        ({"kernel": [9, 4], "ifmap": [3, 3]},
         "layer up1: kernel (9, 4) does not fit inside ifmap (7, 7), which is ifmap (3, 3)"),
    ])
    @pytest.mark.parametrize("command", ["transform", "model"])
    def test_kernel_that_does_not_fit_is_rejected_at_load(
            self, tmp_path, hw_path, capsys, command, changes, named):
        net = network_with(tmp_path, **changes)
        hw = ["--hardware", hw_path, "--mode", "convr"] if command == "model" else []
        assert run_cli(command, "--network", net, *hw, "--out-dir", tmp_path / "o",
                       "--strict") == 2
        err = capsys.readouterr().err
        assert f"{net}: {named}" in err
        assert "layer 'up1'" not in err  # the layer is named once

    @pytest.mark.parametrize("name", ["TOTAL", "a,b", "a\nb", "a\rb", "up/5", "up\\5", "a\tb"])
    @pytest.mark.parametrize("existing_dir", [False, True])
    def test_name_the_outputs_cannot_carry_is_rejected(
            self, tmp_path, hw_path, capsys, name, existing_dir):
        net = network_with(tmp_path, name=name)
        if existing_dir:  # where schedule_up/5_convr.json would land
            (tmp_path / "o" / "schedule_up").mkdir(parents=True)
        for command in ("schedule", "model"):
            assert run_cli(command, "--network", net, "--hardware", hw_path, "--mode", "convr",
                           "--out-dir", tmp_path / "o") == 2
            assert f"{net}: layer 0: field 'name' must not be TOTAL" in capsys.readouterr().err
        assert not [p for p in tmp_path.joinpath("o").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("name", ["a&b", "<up>", "x]]>y"])
    def test_svg_escapes_layer_and_run_names(self, tmp_path, hw_path, name):
        net = network_with(tmp_path, name=name)
        out = tmp_path / "o"
        assert run_cli("model", "--network", net, "--hardware", hw_path, "--mode", "convr",
                       "--out-dir", out) == 0
        assert run_cli("report", "--run", f"{name}={out / 'report_convr.csv'}",
                       "--out-dir", out, "--svg") == 0
        svg = minidom.parse(str(out / "comparison.svg"))
        texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert texts.count(name) == 2  # the bar label and the legend entry

    def report_csv(self, tmp_path, hw_path, edit):
        """A `svopt model` CSV of NETWORK, its lines (cells split) passed through `edit`."""
        out = tmp_path / "model"
        assert run_cli("model", "--network", write_json(tmp_path / "net.json", NETWORK),
                       "--hardware", hw_path, "--mode", "convr", "--out-dir", out) == 0
        path = out / "report_convr.csv"
        lines = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(cells) + "\n" for cells in edit(lines)))
        return path

    @pytest.mark.parametrize("edit, named", [
        (lambda lines: [cells[1:] for cells in lines], "missing column(s) ['layer']"),
        (lambda lines: [cells[:2] + cells[3:] for cells in lines],
         "missing column(s) ['latency_cycles']"),
        (lambda lines: [cells + cells[2:3] for cells in lines],
         "repeated column(s) ['latency_cycles']"),
        (lambda lines: lines + lines[1:2], "layer 'conv1' is listed twice"),
        (lambda lines: [lines[0], lines[1][:2] + ["12.5"] + lines[1][3:], *lines[2:]],
         "layer 'conv1': column 'latency_cycles' must be a non-negative integer, got '12.5'"),
        (lambda lines: [lines[0], lines[1][:2] + ["-3"] + lines[1][3:], *lines[2:]],
         "layer 'conv1': column 'latency_cycles' must be a non-negative integer, got '-3'"),
    ])
    def test_malformed_run_csv_is_rejected(self, tmp_path, hw_path, capsys, edit, named):
        path = self.report_csv(tmp_path, hw_path, edit)
        assert run_cli("report", "--run", f"a={path}", "--out-dir", tmp_path / "o") == 2
        assert f"{path}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("runs, named", [
        (["a", "a"], "--run 'a={csv}': run 'a' is already named"),
        (["a", "b,c"], "--run 'b,c={csv}': field 'NAME' must not be TOTAL"),
        (["a\nb"], "--run 'a\\nb={csv}': field 'NAME' must not be TOTAL"),
    ])
    def test_bad_run_names_are_rejected(self, tmp_path, hw_path, capsys, runs, named):
        path = self.report_csv(tmp_path, hw_path, lambda lines: lines)
        args = [arg for name in runs for arg in ("--run", f"{name}={path}")]
        assert run_cli("report", *args, "--out-dir", tmp_path / "o") == 2
        assert named.format(csv=path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPinnedOutputs:
    """`svopt model`, `svopt schedule` and `svopt transform` write pinned bytes.

    A 2-D conv, a 2-D deconv and a 3-D deconv on hardware tight enough for
    clipped edge tiles, several parts per tile, both reuse orders and
    memory-bound rounds.
    """

    network = {"format_version": 1, "layers": [
        {"name": "conv1", "kind": "conv", "kernel": [3, 3], "in_channels": 3,
         "out_channels": 4, "ifmap": [10, 10], "stride": 1},
        {"name": "up2d", "kind": "deconv", "kernel": [4, 3], "in_channels": 4,
         "out_channels": 6, "ifmap": [9, 7], "stride": 2},
        {"name": "up3d", "kind": "deconv", "kernel": [3, 3, 3], "in_channels": 6,
         "out_channels": 3, "ifmap": [5, 4, 6], "stride": 2},
    ]}
    hardware = {"format_version": 1, "pe_array": [4, 4], "buffer_capacity": 900,
                "bandwidth": 0.5}
    sha256 = {
        "baseline": {
            "report_baseline.csv":
                "c43cda173248274018ef38a28e247250038d7b0daf4d1275a8bd634442fd1c11",
            "schedule_conv1_baseline.json":
                "908dd9896dfdc0bc471b531b9fbee856a56bcb32801769c69d7140e066678c02",
            "schedule_up2d_baseline.json":
                "d6145904a3099e8679bb75b9421016ae908486810a6d6f55885e8e27217c7b23",
            "schedule_up3d_baseline.json":
                "8d2b2a6df6c91f4036359fbcbd89574ce6e6d4be00af52d250e91b248ed40cfd",
        },
        "convr": {
            "report_convr.csv": "0147700856638ea758deedcf9bed2358eb9abe949b9e33e7ae7f00ed9bb61279",
            "schedule_conv1_convr.json":
                "ab573667f935d74b276c74f9328acaca5a4ca790872c3d37cfe45c909dbc4988",
            "schedule_up2d_convr.json":
                "1459f33b6f04bcb66fe041fec62799af303a12bca02ef7529bc46906b38c46eb",
            "schedule_up3d_convr.json":
                "59e7bd402cd0461a6f89c40f9d5d09f807289cbef57801e7580aec8f97a6696a",
        },
        "ilar": {
            "report_ilar.csv": "5346778bdf9b2c33dbb9a72da4fdac801c32418cfa2be0331e540fecebeaba6c",
            "schedule_conv1_ilar.json":
                "cf18a3e89d114f8048b59b3fb07824ab8f02a5a70d33a3bb0fb82b134834fc40",
            "schedule_up2d_ilar.json":
                "44dc7e5b3abd8d6da5f47c68df77a647f6f9dff7e5a519fcb822820fcf61ddaa",
            "schedule_up3d_ilar.json":
                "7929c4d23af3da1281fd3ec4253d5087d7729200cb5f575d4a3fc184a6eb3baa",
        },
    }

    def run(self, tmp_path, command, mode):
        net = write_json(tmp_path / "net.json", self.network)
        hw = write_json(tmp_path / "hw.json", self.hardware)
        out = tmp_path / command
        code = main([command, "--network", net, "--hardware", hw, "--mode", mode,
                     "--out-dir", str(out)])
        return code, out

    @pytest.mark.parametrize("mode", ["baseline", "convr", "ilar"])
    def test_model_and_schedule_bytes_are_pinned(self, tmp_path, mode):
        files = {}
        for command in ("model", "schedule"):
            code, out = self.run(tmp_path, command, mode)
            assert code == 0
            files.update((p.name, p.read_bytes()) for p in out.iterdir())
        got = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        assert got == self.sha256[mode]

    def test_transform_manifest_bytes_are_pinned(self, tmp_path):
        # one more deconv whose kernel extent 1 leaves two parity slices empty
        layers = self.network["layers"] + [
            {"name": "up1x3", "kind": "deconv", "kernel": [1, 3], "in_channels": 3,
             "out_channels": 3, "ifmap": [4, 4], "stride": 2}]
        net = write_json(tmp_path / "net.json", dict(self.network, layers=layers))
        assert main(["transform", "--network", net, "--out-dir", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "transform.json").read_bytes()).hexdigest()
        assert got == "9ac0b5bd7fa54dcce3d8421f95cc2543efb4ec76f842765c23d1820c484b42da"

    @pytest.mark.parametrize("mode", ["baseline", "convr", "ilar"])
    def test_model_never_builds_a_round(self, tmp_path, monkeypatch, capsys, mode):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("built a RoundPlan")

        monkeypatch.setattr(RoundPlan, "__new__", refuse)
        assert self.run(tmp_path, "model", mode)[0] == 0
        # a schedule file holds the tile grid, so writing one expands no round either
        assert self.run(tmp_path, "schedule", mode)[0] == 0
        assert capsys.readouterr().err == ""
