"""Seeded inputs with known answers for every perfbench workload.

This module deliberately imports nothing from ``repro``: the inputs and
their expected verdicts are fixed by the benchmark, so no change to the
program can change what is measured or what counts as correct.

Every document carries its known answer:

- ``expect`` -- the constraint strings (as the program prints them) of
  the violations the document must report, sorted; empty means valid;
- ``error`` -- the syntax-error kind when the document is malformed
  (see :data:`SYNTAX_MARKERS`), else ``None``.

A registry corpus additionally records its cross-document findings:
the ``L_id`` fold's expected corpus violations and how many locally
dangling references another document resolves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LIBRARY_SCHEMA = """\
<!ELEMENT library (entry*, ref*)>
<!ELEMENT entry (#PCDATA)?>
<!ELEMENT ref EMPTY>
<!ATTLIST entry
  isbn CDATA #REQUIRED
  shelf CDATA #REQUIRED>
<!ATTLIST ref
  to CDATA #REQUIRED>

%% constraints
entry.isbn -> entry
entry[isbn, shelf] -> entry
ref.to sub entry.isbn
"""

REGISTRY_SCHEMA = """\
<!ELEMENT registry (person*, mention*)>
<!ELEMENT person EMPTY>
<!ELEMENT mention EMPTY>
<!ATTLIST person
  pid ID #REQUIRED>
<!ATTLIST mention
  who IDREF #REQUIRED>

%% constraints
person.id ->id person
mention.who sub person.id
"""

CHAIN_SCHEMA = """\
<!ELEMENT chain (node)>
<!ELEMENT node (node?)>
<!ATTLIST node
  k CDATA #REQUIRED>

%% constraints
node.k -> node
"""

FEED_SCHEMA = """\
<!ELEMENT feed (item*, entry*, ref*)>
<!ELEMENT item (#PCDATA)?>
<!ELEMENT entry EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST entry
  sku CDATA #REQUIRED>
<!ATTLIST ref
  to CDATA #REQUIRED>

%% constraints
entry.sku -> entry
ref.to sub entry.sku
"""

#: schema name -> (DTD^C text, root element type)
SCHEMAS = {
    "library": (LIBRARY_SCHEMA, "library"),
    "registry": (REGISTRY_SCHEMA, "registry"),
    "chain": (CHAIN_SCHEMA, "chain"),
    "feed": (FEED_SCHEMA, "feed"),
}

LIB_KEY = "entry.isbn -> entry"
LIB_FK = "ref.to sub entry.isbn"
REG_ID = "person.id ->id person"
REG_FK = "mention.who sub person.id"
FEED_FK = "ref.to sub entry.sku"

#: syntax-error kind -> a fragment every engine's message contains
SYNTAX_MARKERS = {
    "mismatch": "does not match open element",
    "truncated": "unclosed element",
    "quote": "malformed start tag",
    "amp": "bare '&'",
}

_WORDS = ("atlas", "bridge", "cipher", "delta", "ember", "fjord", "garnet",
          "harbor", "iris", "juniper", "kelp", "lumen", "meadow", "nectar",
          "orbit", "prism", "quartz", "raven", "sable", "tundra")


@dataclass(frozen=True)
class Doc:
    """One generated document and its known answer."""

    doc_id: str
    schema: str
    text: str
    expect: tuple = ()
    error: "str | None" = None

    @property
    def nbytes(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass
class Corpus:
    """A registry corpus plus its expected cross-document findings."""

    docs: list
    #: sorted (code, constraint, doc ids in corpus order) triples
    findings: list = field(default_factory=list)
    resolved_cross_document: int = 0


def _rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, input family)."""
    return random.Random(f"perfbench:{stream}:{seed}")


# -- the library family (docs, serve, big's wide document) ---------------


def _library_text(entries, refs) -> str:
    parts = ["<library>"]
    for isbn, shelf, title in entries:
        if title:
            parts.append(f'<entry isbn="{isbn}" shelf="{shelf}">'
                         f"{title}</entry>")
        else:
            parts.append(f'<entry isbn="{isbn}" shelf="{shelf}"/>')
    parts.extend(f'<ref to="{to}"/>' for to in refs)
    parts.append("</library>")
    return "".join(parts)


def _corrupt_syntax(text: str, kind: str) -> str:
    if kind == "mismatch":
        return text.replace("</entry>", "</entyr>", 1)
    if kind == "truncated":
        return text[:-len("</library>")]
    if kind == "quote":
        return text.replace('" shelf="', ' shelf="', 1)
    if kind == "amp":
        return text.replace("</entry>", " & co</entry>", 1)
    raise ValueError(f"unknown syntax-error kind {kind!r}")


def library_doc(rng: random.Random, doc_id: str, n_entries: int = 30,
                n_refs: int = 29, fault: "str | None" = None) -> Doc:
    """A library document of ``1 + n_entries + n_refs`` elements.

    ``fault`` is ``None`` (valid), ``"key"`` (two entries share an isbn
    on different shelves: exactly the unary key breaks), ``"fk"`` (one
    dangling ``ref.to``) or a :data:`SYNTAX_MARKERS` kind.
    """
    salt = rng.randrange(16 ** 6)
    entries = []
    for i in range(n_entries):
        isbn = f"{doc_id}-{salt:06x}-{i}"
        shelf = f"s{rng.randrange(12)}"
        title = " ".join(rng.choice(_WORDS)
                         for _ in range(rng.randrange(0, 3)))
        entries.append((isbn, shelf, title))
    expect: tuple = ()
    if fault == "key":
        j = rng.randrange(1, n_entries)
        isbn0, shelf0, _title = entries[0]
        shelf = f"s{(int(shelf0[1:]) + 1 + rng.randrange(11)) % 12}"
        entries[j] = (isbn0, shelf, entries[j][2])
        expect = (LIB_KEY,)
    isbns = sorted({isbn for isbn, _s, _t in entries})
    refs = [rng.choice(isbns) for _ in range(n_refs)]
    if fault == "fk":
        refs[rng.randrange(n_refs)] = f"{doc_id}-{salt:06x}-missing"
        expect = (LIB_FK,)
    text = _library_text(entries, refs)
    if fault in SYNTAX_MARKERS:
        return Doc(doc_id, "library", _corrupt_syntax(text, fault),
                   error=fault)
    return Doc(doc_id, "library", text, expect)


def _faults(rng: random.Random, n: int, invalid: float,
            malformed: float) -> list:
    """A fixed share of faults, placed at seeded positions."""
    n_bad = round(n * invalid)
    n_syntax = round(n * malformed)
    kinds = ["key", "fk"] * (n_bad // 2) + ["fk"] * (n_bad % 2)
    kinds += [sorted(SYNTAX_MARKERS)[i % len(SYNTAX_MARKERS)]
              for i in range(n_syntax)]
    faults: list = [None] * (n - len(kinds)) + kinds
    rng.shuffle(faults)
    return faults


def library_stream(seed: int, stream: str, invalid: float = 0.15,
                   malformed: float = 0.03, block: int = 100):
    """An endless supply of distinct ~2 KB, 60-vertex library documents;
    in every block of ``block`` documents, ``invalid`` of them carry
    exactly one violation and ``malformed`` a syntax error."""
    rng = _rng(seed, stream)
    d = 0
    while True:
        for fault in _faults(rng, block, invalid, malformed):
            yield library_doc(rng, f"{stream}{d:06d}", fault=fault)
            d += 1


def library_docs(seed: int, n: int, invalid: float = 0.15,
                 malformed: float = 0.03, stream: str = "docs") -> list:
    """The first ``n`` documents of :func:`library_stream`."""
    docs = library_stream(seed, stream, invalid, malformed)
    return [next(docs) for _ in range(n)]


def serve_stream(seed: int, repeat: float = 0.3, block: int = 10):
    """Endless served documents: in every block of ``block``, ``repeat``
    of them, at seeded places, are byte-identical re-submissions of an
    earlier one (cache hits), the rest fresh :func:`library_stream`
    documents.  The share is exact in every block (but the first, which
    cannot open with a repeat), so no seed moves the median between the
    hit and the miss mode."""
    rng = _rng(seed, "serve-mix")
    fresh = library_stream(seed, "req")
    sent: list = []
    while True:
        repeats = set(rng.sample(range(block), round(block * repeat)))
        for i in range(block):
            if sent and i in repeats:
                yield rng.choice(sent)
            else:
                sent.append(next(fresh))
                yield sent[-1]


# -- the registry family (corpus) ------------------------------------------


def registry_corpus(seed: int, n: int, per_doc: int = 30,
                    cross_dup: float = 0.05, cross_ref: float = 0.08,
                    ghost: float = 0.04, prefix: str = "r") -> Corpus:
    """``n`` ``L_id`` registry documents whose interesting findings lie
    between documents.

    - ``cross_dup``: a document re-declares another document's person
      ID -- valid on its own, an ``id-clash`` at the corpus fold;
    - ``cross_ref``: a mention of another document's person -- one
      local violation, resolved cross-document by the fold;
    - ``ghost``: a mention of an ID no document owns -- one local
      violation and one corpus-level foreign-key finding.
    """
    rng = _rng(seed, f"registry:{prefix}")
    kinds = (["dup"] * round(n * cross_dup) + ["xref"] * round(n * cross_ref)
             + ["ghost"] * round(n * ghost))
    faults: list = [None] * (n - len(kinds)) + kinds
    rng.shuffle(faults)
    ids = [f"{prefix}{d:05d}" for d in range(n)]
    owners: dict = {}
    refs_missing: list = []
    docs = []
    for d, fault in enumerate(faults):
        salt = rng.randrange(16 ** 6)
        pids = [f"p{salt:06x}-{d}-{i}" for i in range(per_doc)]
        whos = [rng.choice(pids) for _ in range(per_doc - 1)]
        expect: tuple = ()
        if fault == "dup":
            pids.append(f"shared-{ids[d]}")  # re-declared by a partner
        elif fault == "xref":
            whos[rng.randrange(len(whos))] = f"xref-{ids[d]}"
            expect = (REG_FK,)
        elif fault == "ghost":
            whos[rng.randrange(len(whos))] = f"ghost-{ids[d]}"
            expect = (REG_FK,)
        docs.append([ids[d], pids, whos, expect])
    # partners: a cross-dup document's extra ID also lives in one other
    # clean document; a cross-ref's target lives in one other document
    clean = [d for d, f in enumerate(faults) if f is None]
    for d, fault in enumerate(faults):
        if fault == "dup":
            docs[rng.choice(clean)][1].append(f"shared-{ids[d]}")
        elif fault == "xref":
            docs[rng.choice(clean)][1].append(f"xref-{ids[d]}")
    out = []
    for doc_id, pids, whos, expect in docs:
        for pid in pids:
            owners.setdefault(pid, []).append(doc_id)
        local = set(pids)
        refs_missing.extend((doc_id, w) for w in whos if w not in local)
        text = "".join(["<registry>"]
                       + [f'<person pid="{p}"/>' for p in pids]
                       + [f'<mention who="{w}"/>' for w in whos]
                       + ["</registry>"])
        out.append(Doc(doc_id, "registry", text, expect))
    findings = []
    for value in sorted(owners):
        if len(owners[value]) > 1:
            findings.append(("id-clash", REG_ID, tuple(owners[value])))
    dangling: dict = {}
    resolved = 0
    for doc_id, value in refs_missing:
        if value in owners:
            resolved += 1
        else:
            dangling.setdefault(value, []).append(doc_id)
    for value in sorted(dangling):
        findings.append(("foreign-key", REG_FK, tuple(dangling[value])))
    return Corpus(out, sorted(findings), resolved)


def registry_stream(seed: int, block: int = 100):
    """Endless registry documents, one :func:`registry_corpus` block at
    a time; each document's own verdict is known (cross-document
    partners may fall in another block, which a single request never
    sees)."""
    b = 0
    while True:
        yield from registry_corpus(seed, block, prefix=f"q{b}-").docs
        b += 1


# -- the big family ---------------------------------------------------------


def chain_doc(depth: int, doc_id: str = "chain") -> Doc:
    """``depth`` nested ``node`` elements, each with a distinct key."""
    text = ("<chain>" + "".join(f'<node k="n{i}">' for i in range(depth))
            + "</node>" * depth + "</chain>")
    return Doc(doc_id, "chain", text)


def feed_doc(rng: random.Random, n_items: int, n_keyed: int = 64,
             doc_id: str = "feed") -> Doc:
    """A Σ-sparse document: ``n_items`` Σ-irrelevant text items, then a
    keyed tail with exactly one dangling reference."""
    parts = ["<feed>"]
    parts.extend(f"<item>{rng.choice(_WORDS)} {i} {'x' * 40}</item>"
                 for i in range(n_items))
    parts.extend(f'<entry sku="k{i}"/>' for i in range(n_keyed))
    bad = rng.randrange(n_keyed)
    parts.extend(f'<ref to="k{i if i != bad else "missing"}"/>'
                 for i in range(n_keyed))
    parts.append("</feed>")
    return Doc(doc_id, "feed", "".join(parts), (FEED_FK,))


def wide_doc(rng: random.Random, n_entries: int,
             doc_id: str = "wide") -> Doc:
    """A Σ-dense library document: ``n_entries`` keyed entries and as
    many references, with one duplicated isbn and one dangling ref."""
    entries = [(f"w{i}", f"s{rng.randrange(50)}", "") for i in range(n_entries)]
    j = rng.randrange(1, n_entries)
    shelf0 = entries[0][1]
    entries[j] = ("w0", f"s{(int(shelf0[1:]) + 1) % 50}", "")
    live = sorted({isbn for isbn, _s, _t in entries})
    refs = [rng.choice(live) for _ in range(n_entries)]
    refs[rng.randrange(n_entries)] = "missing"
    return Doc(doc_id, "library", _library_text(entries, refs),
               (LIB_KEY, LIB_FK))


def big_docs(seed: int, depth: int, feed_items: int,
             wide_entries: int) -> list:
    """The ``big`` workload: a deep chain, a Σ-sparse feed and a wide
    Σ-dense library document."""
    rng = _rng(seed, "big")
    return [chain_doc(depth), feed_doc(rng, feed_items),
            wide_doc(rng, wide_entries)]


def wide_docs(seed: int, n: int, wide_entries: int,
              stream: str = "wide") -> list:
    """``n`` wide library documents (the ``big`` workload's corpus: one
    schema, every document large)."""
    rng = _rng(seed, stream)
    return [wide_doc(rng, wide_entries, f"{stream}{i}") for i in range(n)]
