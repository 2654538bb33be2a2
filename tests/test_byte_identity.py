"""The CLI writes the bytes recorded in the committed manifest: every
case of byte_identity.py, run on its seeded corpora, gives the exit
status and digests of byte_identity.json.  A case that moves is named;
regenerate the manifest only for an intended output change."""

import json

from byte_identity import CASES, MANIFEST, digests


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv("CODESWITCH_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(CASES)
    found = digests()
    moved = [name for name in CASES if found[name] != manifest[name]]
    assert moved == []
    assert all(case["exit"] == 0 for case in found.values())
