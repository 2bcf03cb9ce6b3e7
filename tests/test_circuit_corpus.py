"""The CLI's reports against their corpus, ``corpus/circuits.json`` (see ``circuit_corpus``)."""

import json

import pytest

from circuit_corpus import CORPUS, cases, changes_per_kind, record

# Keys, strings, ints, bools, nulls and shapes compare exactly and floats within this absolute bound: CI
# installs the newest numpy, whose BLAS and ufuncs may round the last bits differently from the numpy the
# corpus was written with
TOLERANCE = 1e-14

RECORDS = json.loads(CORPUS.read_text())["records"]
CASES = cases()


def test_the_corpus_holds_one_record_per_case():
    assert len(RECORDS) == len(CASES) == 40
    assert [(r["name"], r["circuit"], r["initial"]) for r in RECORDS] == [case[:3] for case in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[case[0] for case in CASES])
def test_the_cli_reproduces_its_reports(index):
    changes = changes_per_kind([RECORDS[index]], [record(*CASES[index])])
    assert all(value <= TOLERANCE for per_key in changes.values() for value in per_key.values()), changes
