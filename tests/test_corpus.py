"""Every scenario document of the corpus (tests/documents/ and examples/), run
in a child interpreter on numpy alone: see corpus.py."""

import pytest

import corpus


@pytest.mark.parametrize(
    "doc", corpus.DOCUMENTS, ids=lambda doc: doc.relative_to(corpus.ROOT).as_posix()
)
def test_document_keeps_its_promises(doc):
    assert corpus.check(doc) == []
