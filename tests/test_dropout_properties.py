"""Property test: ``mlp.draw_kept``, the dropout draw read from the
generator's raw 64-bit words, against ``Generator.random(dtype=float32)``.

For an even number of draws the kept units are those of
``rng.random(shape, dtype=np.float32) >= p`` and the generator ends in the
same state.  For an odd number the last word's high half is dropped, so the
draws are those of one more float32 uniform, the last one unused.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from agst.mlp import draw_kept  # noqa: E402


def same_state(a, b):
    """The generators draw the same from here on: every field of their
    states equal, apart from the stale value of a spent 32-bit half."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    if not sa["has_uint32"]:
        sa, sb = dict(sa, uinteger=0), dict(sb, uinteger=0)
    return sa.keys() == sb.keys() and all(equal(sa[k], sb[k]) for k in sa)


def equal(x, y):
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(equal(x[k], y[k]) for k in x)
    return np.array_equal(x, y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.integers(1, 40), cols=st.integers(1, 70),
       p=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.Philox, np.random.SFC64]))
def test_raw_words_draw_what_float32_uniforms_draw(rows, cols, p, seed, bit_generator):
    ours = np.random.Generator(bit_generator(seed))
    theirs = np.random.Generator(bit_generator(seed))
    # a draw before, as the weights' initialisation is drawn before the masks
    assert np.array_equal(ours.uniform(size=3), theirs.uniform(size=3))
    kept = draw_kept(ours, p, np.empty((rows, cols), dtype=bool))
    size = rows * cols
    uniforms = theirs.random(size + size % 2, dtype=np.float32)[:size]
    assert np.array_equal(kept, (uniforms >= p).reshape(rows, cols))
    assert same_state(ours, theirs)
    if size % 2 == 0:
        replay = np.random.Generator(bit_generator(seed))
        replay.uniform(size=3)
        assert np.array_equal(kept, replay.random((rows, cols), dtype=np.float32) >= p)
        assert same_state(replay, ours)


def test_thirty_two_bit_generator_refused():
    with pytest.raises(ValueError, match="64-bit"):
        draw_kept(np.random.Generator(np.random.MT19937(0)), 0.5, np.empty(4, dtype=bool))


class RawWords:
    """A stand-in generator whose raw 64-bit draws are the given words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        assert size == self.words.size
        return self.words


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.floats(0.05, 0.95))
def test_words_at_the_threshold_keep_as_their_float32_uniforms(p):
    # a float32 uniform is (word >> 8) * 2**-24; words whose top 24 bits sit
    # at and beside the smallest kept value, with low bytes 0 and 255
    top = int(np.ceil(np.float64(np.float32(p)) * 2**24))
    halves = np.array([(k << 8) | low for k in (top - 1, top, top + 1) for low in (0, 255)],
                      dtype=np.uint64)
    kept = draw_kept(RawWords(halves[0::2] | halves[1::2] << np.uint64(32)), p,
                     np.empty(halves.size, dtype=bool))
    uniforms = (halves >> np.uint64(8)).astype(np.float32) * np.float32(2**-24)
    assert np.array_equal(kept, uniforms >= np.float32(p))
    assert kept.tolist() == [False, False, True, True, True, True]
