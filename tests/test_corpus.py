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
