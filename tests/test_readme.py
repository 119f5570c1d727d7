"""The README's examples run and its documented file formats load as written."""

import argparse
import re
from pathlib import Path

import pytest

from svopt.cli import build_parser, main
from svopt.formats import load_hardware, load_network, load_schedule, load_sequence
from svopt.perfmodel import validate_schedule

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks():
    """Each fenced block of the README as (nearest heading, language, body)."""
    blocks, heading = [], None
    for match in re.finditer(r"^(#+) ([^\n]*)$|^```(\w*)\n(.*?)^```$", README.read_text("utf-8"),
                             re.MULTILINE | re.DOTALL):
        if match[1]:
            heading = match[2]
        else:
            blocks.append((heading, match[3], match[4]))
    return blocks


def block(heading, language):
    found = [body for h, lang, body in fenced_blocks() if (h, lang) == (heading, language)]
    assert len(found) == 1, f"README needs one {language} block under '{heading}'"
    return found[0]


def test_library_example_runs():
    exec(compile(block("Library example", "python"), str(README), "exec"), {})


def test_command_line_lists_every_option_of_every_subcommand():
    listed = {}
    for line in block("Command line", "").replace("\\\n", " ").splitlines():
        listed[line.split()[1]] = set(re.findall(r"--[\w-]+", line))
    action, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for command, p in action.choices.items()}
    assert listed == options


@pytest.fixture
def readme_file(tmp_path):
    def write(heading):
        path = tmp_path / f"{heading.split()[0].lower()}.json"
        path.write_text(block(heading, "json"), encoding="utf-8")
        return path
    return write


def test_network_file_loads_strictly(readme_file):
    layers = load_network(readme_file("Network file"), strict=True)
    assert [layer.name for layer in layers] == ["conv1", "up1"]


def test_hardware_file_loads_strictly(readme_file):
    hw = load_hardware(readme_file("Hardware file"), strict=True)
    assert (hw.pe_count, hw.buffer_capacity, hw.bandwidth, hw.double_buffered) == (
        576, 786432, 16.0, True)


def test_schedule_file_is_what_svopt_schedule_writes(tmp_path, readme_file):
    net, hw = readme_file("Network file"), readme_file("Hardware file")
    name, mode, schedule = load_schedule(readme_file("Schedule file"))
    layer, = (layer for layer in load_network(net) if layer.name == name)
    assert (name, mode, schedule.n_rounds) == ("up1", "convr", 32)
    validate_schedule(schedule, layer, load_hardware(hw))
    assert main(["schedule", "--network", str(net), "--hardware", str(hw), "--mode", mode,
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert load_schedule(tmp_path / "out" / "schedule_up1_convr.json") == (name, mode, schedule)


def test_sequence_manifest_loads_strictly(readme_file):
    path = readme_file("Stereo sequence manifest")
    spec = load_sequence(path, strict=True)
    assert spec.pw == 2
    assert [entry.left for entry in spec.frames] == [path.parent / "l0.pgm",
                                                     path.parent / "l1.pgm"]
    assert spec.frames[0].key_disparity == path.parent / "d0.pgm"
    assert spec.frames[1].key_disparity is None
