"""The cost store's file I/O: hand-written cost lines and the one-parse load.

``PersistentWhatIfCache._cost_line`` writes a line by hand; it must be
byte-identical to the ``json.dumps(..., sort_keys=True)`` it replaced, or
shard files (and their pinned hashes) would change. The loader parses a
whole shard with one ``json.loads`` and falls back to a per-line loop when
a line is torn.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings, strategies as st

from repro.backend.cache import PersistentWhatIfCache

#: Text with the characters JSON must escape, plus non-ASCII (BMP and not).
_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f"]),
        st.characters(),
    ),
    max_size=12,
)

_costs = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf]),
    st.floats(min_value=-1e-307, max_value=1e-307, allow_subnormal=True),
)


@settings(max_examples=300, deadline=None)
@given(qid=_text, key=st.lists(_text, max_size=4), cost=_costs)
def test_cost_line_matches_json_dumps(qid, key, cost):
    expected = json.dumps(
        {"type": "cost", "qid": qid, "key": list(key), "cost": cost}, sort_keys=True
    )
    assert PersistentWhatIfCache._cost_line(qid, tuple(key), cost) == expected


def test_cost_line_matches_json_dumps_for_numpy_and_int_costs():
    import numpy as np

    for cost in (np.float64(0.1), np.float64(-np.inf), 7, True):
        expected = json.dumps(
            {"type": "cost", "qid": "q", "key": ["a"], "cost": cost}, sort_keys=True
        )
        assert PersistentWhatIfCache._cost_line("q", ("a",), cost) == expected


def _shard(tmp_path, lines: list[str]) -> PersistentWhatIfCache:
    cache = PersistentWhatIfCache(tmp_path, {"backend": "a"})
    header = cache._header_line()
    cache.path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return PersistentWhatIfCache(tmp_path, {"backend": "a"})


def test_torn_middle_line_serves_every_complete_line(tmp_path):
    line = PersistentWhatIfCache._cost_line
    complete = [
        line("q1", ("a",), 1.0),
        line("q2", ("a", "b"), 2.0),
        line("q1", ("a",), 3.0),  # a later occurrence of q1's pair
    ]
    torn = line("q3", ("c",), 4.0)[:17]
    cache = _shard(tmp_path, [complete[0], torn, complete[1], "", complete[2]])
    assert cache._load() == {("q1", ("a",)): 3.0, ("q2", ("a", "b")): 2.0}


def test_whole_shard_loads_in_one_parse(tmp_path, monkeypatch):
    line = PersistentWhatIfCache._cost_line
    cache = _shard(
        tmp_path,
        [line("q1", ("a",), 1.0), line("q2", (), -0.0), line("q1", ("a",), math.inf)],
    )
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    costs = cache._load()
    assert len(calls) == 1
    assert costs == {("q1", ("a",)): math.inf, ("q2", ()): -0.0}
