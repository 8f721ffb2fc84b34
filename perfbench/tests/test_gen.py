"""The generator's known answers."""

import re
from collections import Counter

import pytest

import gen


def _elements(doc):
    return len(re.findall(r"<[a-z]", doc.text))


def test_library_docs_are_seeded_and_distinct():
    a = gen.library_docs(7, 50)
    assert [d.text for d in a] == [d.text for d in gen.library_docs(7, 50)]
    assert [d.text for d in a] != [d.text for d in gen.library_docs(8, 50)]
    assert len({d.text for d in a}) == 50


def test_library_fault_shares_are_exact_per_block():
    docs = gen.library_docs(3, 200)
    kinds = Counter(d.error or (d.expect[0] if d.expect else "valid")
                    for d in docs)
    # per block of 100: 15 invalid (key/fk alternate) and 3 malformed
    assert kinds[gen.LIB_KEY] == 14
    assert kinds[gen.LIB_FK] == 16
    assert sum(kinds[k] for k in gen.SYNTAX_MARKERS) == 6
    assert kinds["valid"] == 200 - 36
    assert all(len(d.expect) <= 1 for d in docs)


def test_library_docs_have_the_stated_shape():
    docs = [d for d in gen.library_docs(5, 40) if d.error is None]
    assert all(_elements(d) == 60 for d in docs)
    mean = sum(d.nbytes for d in docs) / len(docs)
    assert 1800 < mean < 2800


def test_key_fault_breaks_only_the_unary_key():
    rng = gen._rng(1, "t")
    doc = gen.library_doc(rng, "k", fault="key")
    assert doc.expect == (gen.LIB_KEY,)
    isbns = re.findall(r'isbn="([^"]+)" shelf="([^"]+)"', doc.text)
    assert len({i for i, _s in isbns}) == len(isbns) - 1
    assert len(set(isbns)) == len(isbns)          # composite key holds
    refs = set(re.findall(r'to="([^"]+)"', doc.text))
    assert refs <= {i for i, _s in isbns}         # no dangling ref


@pytest.mark.parametrize("kind", sorted(gen.SYNTAX_MARKERS))
def test_syntax_faults_change_the_text(kind):
    rng = gen._rng(2, "t")
    doc = gen.library_doc(rng, "s", fault=kind)
    assert doc.error == kind and doc.expect == ()
    clean = gen.library_doc(gen._rng(2, "t"), "s")
    assert doc.text != clean.text


def test_serve_stream_repeats_thirty_percent_of_every_block():
    stream = gen.serve_stream(4)
    seen: set = set()
    per_block = []
    for _b in range(200):
        repeats = 0
        for _ in range(10):
            doc = next(stream)
            repeats += id(doc) in seen
            seen.add(id(doc))
        per_block.append(repeats)
    assert per_block[0] in (2, 3)
    assert set(per_block[1:]) == {3}


def test_registry_corpus_records_cross_document_findings():
    corpus = gen.registry_corpus(9, 200)
    codes = Counter(code for code, _c, _docs in corpus.findings)
    assert codes["id-clash"] == round(200 * 0.05)
    assert codes["foreign-key"] == round(200 * 0.04)
    assert corpus.resolved_cross_document == round(200 * 0.08)
    invalid = [d for d in corpus.docs if d.expect]
    assert len(invalid) == round(200 * 0.08) + round(200 * 0.04)
    assert all(d.expect == (gen.REG_FK,) for d in invalid)
    for _code, _constraint, docs in corpus.findings:
        order = [d.doc_id for d in corpus.docs]
        assert list(docs) == sorted(docs, key=order.index)


def test_registry_stream_ids_never_collide():
    stream = gen.registry_stream(1, block=20)
    docs = [next(stream) for _ in range(60)]
    assert len({d.doc_id for d in docs}) == 60


def test_big_docs_known_answers():
    chain, feed, wide = gen.big_docs(1, 50, 100, 40)
    assert chain.expect == () and chain.text.count("<node") == 50
    assert feed.expect == (gen.FEED_FK,)
    assert wide.expect == (gen.LIB_KEY, gen.LIB_FK)
    assert wide.text.count("<entry") == 40 and wide.text.count("<ref") == 40


def test_known_answers_hold_on_every_engine():
    """The program's own verdicts agree with the generator (the same
    check every benchmark run makes)."""
    repro = pytest.importorskip("repro")
    import stages

    docs = (gen.library_docs(11, 100) + gen.big_docs(11, 30, 50, 30)
            + gen.registry_corpus(11, 40).docs)
    validators = {}
    for doc in docs:
        if doc.schema not in validators:
            text, root = gen.SCHEMAS[doc.schema]
            validators[doc.schema] = repro.Validator(
                repro.parse_dtdc(text, root=root))
        for engine in ("batch", "stream", "auto"):
            report = exc = None
            try:
                report = validators[doc.schema].check(doc.text,
                                                      engine=engine)
            except Exception as e:
                exc = e
            assert stages.check_report(doc, report, exc) is None
