"""Harness audit of the transport bandwidth benches (``sdp``, ``flowctl``).

A cell reports a streaming rate, so doubling the number of messages it
streams must not move it by more than its row's tolerance.  What does
move is start-up cost (connection set-up, the first window or ring
filling) spread over twice the messages, so every rising cell rises by a
few per cent: the published small-message numbers include that cost.
"""

import pytest

from repro.bench import figures

#: row -> (module constant holding a cell's message count, largest
#: relative move of any cell when that count doubles)
DOUBLING = {
    # 40 -> 80 messages: at most +4.2 % (BSDP 256 B, 179.9 -> 187.5 MB/s)
    "sdp": ("N_MSGS", 0.05),
    # 400 -> 800 messages: at most +7.5 % (the 1 B speedup, 16.1 ->
    # 17.3; packetized 1 B moves 17.36 -> 18.58 MB/s, +7.0 %)
    "flowctl": ("FLOW_MSGS", 0.08),
}


@pytest.mark.parametrize("name", sorted(DOUBLING))
def test_doubling_the_message_count_moves_no_cell_past_tolerance(
        name, monkeypatch):
    attr, tolerance = DOUBLING[name]
    fig = figures.FIGURES[name]
    (base,) = fig.build()
    monkeypatch.setattr(figures, attr, 2 * getattr(figures, attr))
    (doubled,) = fig.build()
    # the count reaches the harness: some cell does move
    assert doubled.rows != base.rows
    for row, row2 in zip(base.rows, doubled.rows, strict=True):
        assert row2[0] == row[0]
        for column, a, b in zip(base.columns[1:], row[1:], row2[1:],
                                strict=True):
            assert abs(b - a) <= tolerance * a, (row[0], column, a, b)
