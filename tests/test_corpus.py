"""Every command of the byte-identity corpus prints and writes the bytes the fixture pins.

See ``tests/corpus.py`` for the commands, the digest and how to regenerate
``tests/fixtures/corpus.json`` when a change moves output on purpose.
"""

import json

import corpus


def test_corpus_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(corpus.FIXTURE.read_text())
    actual = corpus.digests()
    assert list(actual) == list(expected)
    assert [key for key in expected if actual[key] != expected[key]] == []


def test_verify_reads_a_pair_as_its_one_term_copy():
    # the two commands print the same bytes: the pair and its generalized copy are one selection
    digests = json.loads(corpus.FIXTURE.read_text())
    file = "--observable P_B --format json --seed 1"
    assert digests[f"verify --file three-box.json {file}"] == digests[f"verify --file three-box-generalized.json {file}"]
