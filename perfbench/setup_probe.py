"""One benchmark set-up: import svopt, then load and validate a workload's inputs.

    python3 perfbench/setup_probe.py INPUT_DIR

The run starts this as a fresh process several times and reports the
median wall time from start to exit as setup_s. The loads mirror what
`svopt model` and `svopt ism` read before they compute.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from svopt.formats import load_hardware, load_network, load_sequence  # noqa: E402
from svopt.pgm import frame_from_pgm, read_disparity  # noqa: E402

inputs = Path(sys.argv[1])
load_hardware(inputs / "hardware.json", strict=True)
sequence = inputs / "sequence.json"
if sequence.exists():
    spec = load_sequence(sequence, strict=True)
    for i, entry in enumerate(spec.frames):
        frame_from_pgm(entry.left)
        frame_from_pgm(entry.right)
        if i % spec.pw == 0:
            read_disparity(entry.key_disparity)
        if entry.gt_disparity is not None:
            read_disparity(entry.gt_disparity)
else:
    for network in sorted(inputs.glob("*.json")):
        if network.name != "hardware.json":
            load_network(network, strict=True)
