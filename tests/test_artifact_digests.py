"""Every artifact of every preset at the standard sizes is byte-identical
to the recorded one, serially and in parallel (see ``artifact_digests``)."""

import json

import pytest

from artifact_digests import DIGESTS, artifact_digests, environment_key


@pytest.mark.parametrize("workers", [1, 2])
def test_artifacts_equal_the_recorded_digests(workers, tmp_path):
    key = environment_key()
    recorded = json.loads(DIGESTS.read_text())
    if key not in recorded:
        pytest.fail(f"no artifact digests recorded for {key} in {DIGESTS.name}; "
                    f"record them with `python tests/{DIGESTS.stem}.py` on a tree "
                    f"whose output is known to be right")
    digests = artifact_digests(tmp_path, workers)
    assert len(digests) == 19
    moved = sorted(name for name in recorded[key].keys() | digests.keys()
                   if recorded[key].get(name) != digests.get(name))
    assert not moved, f"artifacts differ from the recorded digests: {moved}"
