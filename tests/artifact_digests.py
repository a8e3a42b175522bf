"""The sha256 of every artifact of every preset at the standard sizes.

Run as a script to record the digests of this environment in
``artifact_digests.json`` beside it (other environments' entries stay):

    PYTHONPATH=src python tests/artifact_digests.py

Numpy's ``Generator`` does not promise the same streams across releases,
so digests are keyed by the Python minor version, the numpy version and
the machine.  ``test_artifact_digests.py`` compares fresh runs, serial and
parallel, against the recorded entry.  A change that means to move bytes
regenerates the file, which prints the artifacts whose digests moved,
and names them and the key in its change notes.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from photon_transistor import presets, runner
from photon_transistor.config import default_config

DIGESTS = Path(__file__).with_name("artifact_digests.json")
SEED = 77
SHOTS = {"fig2": 300, "fig3": 1000, "fig4ab": 300, "fig4e": 4000, "g2": 20000,
         "custom": 2000}


def environment_key() -> str:
    return (f"python{sys.version_info.major}.{sys.version_info.minor}"
            f"-numpy{np.__version__}-{platform.machine()}")


def artifact_digests(out_root: Path, workers: int) -> dict[str, str]:
    """``{"<preset>/<file>": sha256}`` of every file that every preset
    writes at the standard sizes, run with ``workers``."""
    digests = {}
    for name, shots in SHOTS.items():
        preset = (presets.custom_preset(default_config()) if name == "custom"
                  else presets.get_preset(name))
        out = out_root / f"{name}-{workers}"
        runner.run_preset(preset, shots, SEED, out, workers=workers)
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def moved_artifacts(previous: dict[str, str], current: dict[str, str]) -> list[str]:
    """Names whose digest differs between two entries, or that only one has."""
    return sorted(name for name in previous.keys() | current.keys()
                  if previous.get(name) != current.get(name))


def main() -> None:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    key = environment_key()
    previous = recorded.get(key)
    with tempfile.TemporaryDirectory() as tmp:
        recorded[key] = artifact_digests(Path(tmp), workers=1)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded[key])} digests for {key} in {DIGESTS}")
    if previous is None:
        print("no previous entry for this environment")
    else:
        moved = moved_artifacts(previous, recorded[key])
        print(f"moved against the previous entry: {', '.join(moved) or 'none'}")


if __name__ == "__main__":
    main()
