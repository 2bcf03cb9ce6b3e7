"""``certify`` against its record corpus, ``corpus/certify.json`` (see ``certify_corpus``)."""

import json

import pytest

from certify_corpus import CORPUS, cases, changes_per_key, record

# Keys, strings, bools and nulls compare exactly and numbers within this absolute bound: CI installs the
# newest numpy, whose BLAS and ufuncs may round the last bits differently from the numpy the corpus was
# written with
TOLERANCE = 1e-14

RECORDS = json.loads(CORPUS.read_text())["records"]
CASES = cases()


def test_the_corpus_holds_one_record_per_case():
    assert len(RECORDS) == len(CASES) == 15


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{p.kind}-N{n}-{p.envelope}-{s}" for p, n, s in CASES])
def test_certify_reproduces_its_record(index):
    changes = changes_per_key([RECORDS[index]], [record(*CASES[index])])
    assert all(value <= TOLERANCE for value in changes.values()), changes
