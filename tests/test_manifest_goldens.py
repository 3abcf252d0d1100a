"""Golden run manifests: the bytes ``manifest.json`` is written with.

Every checkpointed ``repro run`` writes a manifest that ``repro resume``
rebuilds the run from, so its format is a contract with every checkpoint
directory already on disk.  Each case below writes one manifest at
``--horizon 24`` and compares its bytes with the fixture under
``tests/goldens/manifests/``.  A replay records no feed, so the ``serve``
spelling of ``run`` writes the plain run's bytes; a live feed records its
identity under ``serve``.  ``legacy_serve_replay.json`` is what the removed
``repro serve --source replay`` wrote; ``repro resume`` still reads it.

Refresh after an intentional format change with::

    PYTHONPATH=src python -m pytest tests/test_manifest_goldens.py --update-goldens
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import MANIFEST_NAME, main

MANIFEST_DIR = Path(__file__).parent / "goldens" / "manifests"

_H = ("--horizon", "24")

#: Fixture name -> the argv that writes it (before ``--checkpoint-dir``).
CASES = {
    "run_plain": ("run", *_H),
    "run_chaos": ("run", *_H, "--chaos"),
    "run_gsd": ("run", *_H, "--solver", "gsd", "--iterations", "5"),
    "run_deadline": ("run", *_H, "--solve-deadline-ms", "50"),
    "serve_replay": ("serve", *_H, "--source", "replay"),
    "run_synthetic": ("run", *_H, "--source", "synthetic", "--source-seed", "7"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_bytes_match_golden(name, tmp_path, capsys, update_goldens):
    ckpt_dir = tmp_path / "ckpt"
    assert main([*CASES[name], "--checkpoint-dir", str(ckpt_dir)]) == 0
    written = (ckpt_dir / MANIFEST_NAME).read_bytes()
    golden = MANIFEST_DIR / f"{name}.json"
    if update_goldens:
        MANIFEST_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(written)
        pytest.skip(f"golden manifest rewritten: {golden}")
    assert written == golden.read_bytes(), f"{name}: manifest bytes changed"
