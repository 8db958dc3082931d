"""Property tests: the incremental index text is exactly the full encoding.

``Bp5Index.to_text`` joins per-block JSON fragments it cached on earlier
calls; whatever the index holds and however its ``blocks`` list was
edited in between, the text must equal ``json.dumps(to_json(), indent=1)``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios.bp5 import Bp5Index, VariableIndexEntry
from repro.adios.variable import Attribute, BlockInfo

# quotes, backslashes, control and non-ASCII characters all escape
names = st.text(
    alphabet=st.sampled_from('UVa_"\\\n\té€😀 '), min_size=0, max_size=6
)
floats = st.floats(allow_nan=True, allow_infinity=True)
dims = st.lists(st.integers(0, 2**40), min_size=0, max_size=3).map(tuple)


@st.composite
def blocks(draw):
    return BlockInfo(
        var=draw(names),
        step=draw(st.integers(0, 10_000)),
        writer_rank=draw(st.integers(0, 64)),
        subfile=draw(st.integers(0, 8)),
        offset=draw(st.integers(0, 2**48)),
        nbytes=draw(st.integers(0, 2**32)),
        start=draw(dims),
        count=draw(dims),
        vmin=draw(floats),
        vmax=draw(floats),
        crc32=draw(st.integers(0, 2**32 - 1)),
        value=draw(st.one_of(st.none(), st.integers(), floats, names)),
        codec=draw(st.sampled_from([None, "zlib", "blosc"])),
        raw_nbytes=draw(st.integers(0, 2**32)),
    )


attribute_values = st.one_of(
    st.integers(),
    floats,
    names,
    st.lists(st.one_of(names, floats), max_size=3),
)


@st.composite
def indices(draw):
    index = Bp5Index(
        nsteps=draw(st.integers(0, 100)),
        nsubfiles=draw(st.integers(1, 8)),
        engine=draw(st.sampled_from(["BP5", "SST"])),
    )
    for name in draw(st.lists(names, max_size=3, unique=True)):
        index.variables[name] = VariableIndexEntry(
            name,
            draw(st.sampled_from(["float64", "int32"])),
            draw(dims),
            draw(st.lists(st.integers(0, 100), max_size=4)),
        )
    for name in draw(st.lists(names, max_size=3, unique=True)):
        index.attributes[name] = Attribute(name, draw(attribute_values))
    index.blocks = draw(st.lists(blocks(), max_size=6))
    return index


def full_encoding(index: Bp5Index) -> str:
    return json.dumps(index.to_json(), indent=1)


class TestToText:
    @given(indices())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_encoding(self, index):
        assert index.to_text() == full_encoding(index)
        # a second call serves every block from the cache
        assert index.to_text() == full_encoding(index)

    def test_empty_index(self):
        index = Bp5Index()
        assert index.to_text() == full_encoding(index)

    # one edit of the index between two to_text() calls
    edits = st.one_of(
        st.tuples(st.just("append"), st.lists(blocks(), min_size=1, max_size=3)),
        st.tuples(st.just("truncate"), st.integers(0, 8)),
        st.tuples(st.just("replace_list"), st.integers(0, 8)),
        st.tuples(st.just("replace_item"), st.integers(0, 8), blocks()),
        st.tuples(st.just("reload")),
        st.tuples(st.just("header"), st.integers(0, 100), names, attribute_values),
    )

    @given(indices(), st.lists(edits, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_cache_follows_every_edit(self, index, script):
        index.to_text()  # prime the cache
        for edit in script:
            kind = edit[0]
            if kind == "append":
                index.blocks.extend(edit[1])
            elif kind == "truncate":
                del index.blocks[edit[1]:]
            elif kind == "replace_list":
                # a new list object holding a prefix of the old blocks
                index.blocks = index.blocks[: edit[1]]
            elif kind == "replace_item" and index.blocks:
                index.blocks[edit[1] % len(index.blocks)] = edit[2]
            elif kind == "reload":
                # what append mode does: a fresh index parsed from disk
                index = Bp5Index.from_json(json.loads(index.to_text()))
            elif kind == "header":
                index.nsteps = edit[1]
                index.attributes[edit[2]] = Attribute(edit[2], edit[3])
            assert index.to_text() == full_encoding(index)
