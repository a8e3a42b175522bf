"""Every artifact of every preset at the standard sizes is byte-identical
to the recorded one, serially and in parallel (see ``artifact_digests``)."""

import json

import pytest

from artifact_digests import (DIGESTS, artifact_digests, environment_key,
                              moved_artifacts)


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
    moved = moved_artifacts(recorded[key], digests)
    assert not moved, f"artifacts differ from the recorded digests: {moved}"


def test_regeneration_names_the_moved_artifacts(tmp_path, monkeypatch, capsys):
    import artifact_digests as ad
    monkeypatch.setattr(ad, "DIGESTS", tmp_path / "digests.json")
    ad.DIGESTS.write_text(json.dumps({environment_key(): {"a/x": "1", "b/y": "2",
                                                          "c/z": "3"}}))
    monkeypatch.setattr(ad, "artifact_digests",
                        lambda out, workers: {"a/x": "1", "b/y": "9", "d/w": "4"})
    ad.main()
    assert capsys.readouterr().out.splitlines()[-1] == (
        "moved against the previous entry: b/y, c/z, d/w")
