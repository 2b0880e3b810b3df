"""Named rng streams: independent, order-free, and loud about the one
way two names can end up as one stream."""

import pytest

from repro.errors import ConfigError
from repro.sim import RngStreams


def test_streams_are_independent_of_creation_order():
    one, other = RngStreams(7), RngStreams(7)
    a = one.get("a").random(4).tolist()
    other.get("b")
    assert other.get("a").random(4).tolist() == a
    assert one.get("b").random(4).tolist() != a


def test_names_sharing_their_first_16_bytes_are_refused():
    """Only 16 bytes of the name key the stream: the 17-byte
    ``locks-arena-times`` and a sibling differing in the last byte
    would draw the identical sequence."""
    streams = RngStreams(0)
    streams.get("locks-arena-times")
    with pytest.raises(ConfigError, match="same stream"):
        streams.get("locks-arena-timeX")
    # asking again for the name that owns the key is still fine
    assert streams.get("locks-arena-times") is \
        streams.get("locks-arena-times")
    # and a distinct 16-byte prefix is a distinct stream
    streams.get("locks-arena-size")
