"""MCTS variant differential: every episode-loop variant against its pin.

``tests/fixtures/mcts_variants.json`` holds 56 TPC-H sessions — 14 MCTS
variants, with and without a binding storage cap, seeds 0 and 1 — captured
before the episode loop was reworked (see
``tests/fixtures/gen_mcts_variants.py``). Each must be reproduced exactly:
recommendation, spent budget, episodes, tree size, counted-call log (costs
as ``float.hex``), event-kind counts and ground-truth improvement.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_mcts_variants", _FIXTURES / "gen_mcts_variants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GEN = _load_generator()
_PINS = json.loads((_FIXTURES / "mcts_variants.json").read_text())
_CASES = _GEN.cases()


def test_every_case_is_pinned():
    assert sorted(key for key, *_ in _CASES) == sorted(_PINS)


def test_capped_cases_bind(tpch):
    """Every capped recommendation fills most of the cap, none exceeds it."""
    cap = _GEN.constraints_for(tpch, capped=True).max_storage_bytes
    for key, pin in _PINS.items():
        if "/capped/" in key:
            assert 0.8 * cap < pin["storage_bytes"] <= cap


@pytest.mark.parametrize(
    "key,config,capped,seed", _CASES, ids=[case[0] for case in _CASES]
)
def test_variant_matches_its_pin(tpch, key, config, capped, seed):
    expected = _PINS[key]
    got = _GEN.run_case(tpch, config, capped, seed)
    # Field by field for readable failures; floats as float.hex on purpose.
    for field in expected:
        assert got[field] == expected[field], field
