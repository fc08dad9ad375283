"""Every command of the report corpus writes the bytes the manifest pins."""

import json

import pytest

import corpus

MANIFEST = json.loads(corpus.MANIFEST.read_text())


def test_corpus_lists_the_commands_it_runs():
    assert [entry["argv"] for entry in MANIFEST["commands"]] == corpus.COMMANDS


@pytest.mark.parametrize("k", range(len(corpus.COMMANDS)))
def test_command_writes_the_pinned_bytes(k, tmp_path):
    want = MANIFEST["environment"]
    got = corpus.environment()
    differ = {key: (want[key], got[key]) for key in want if want[key] != got[key]}
    if differ:
        pytest.skip(f"the corpus was made with other versions or another machine "
                    f"(manifest, here): {differ}")
    entry = MANIFEST["commands"][k]
    assert corpus.run(entry["argv"], tmp_path) == entry


def test_changes_name_what_moved():
    kept = {"argv": ["classify"], "exit": 0, "stdout": "a", "stderr": "",
            "files": {"classify.json": "1"}}
    moved = {**kept, "argv": ["rays"], "files": {"rays.json": "2", "rays.csv": "3"}}
    gone = {**kept, "argv": ["holder", "--grid-res", "16"]}
    new = [kept, {**moved, "stderr": "x", "files": {"rays.json": "4", "rho_length.csv": "5"}},
           {**kept, "argv": ["render", "--rays", "0.5,0.25"]}]
    assert corpus.changes([kept, moved, gone], new) == [
        "removed: holder --grid-res 16",
        "changed: rays: stderr, rays.csv, rays.json, rho_length.csv",
        "added: render --rays 0.5,0.25"]
    assert corpus.changes(new, new) == []
