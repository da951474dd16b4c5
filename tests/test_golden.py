"""Pinned SHA-256 digests of exploration and mutation output.

The JSON export is deterministic by design, so a refactor of the quiver or
exchange layers must reproduce these bytes exactly.  A change that moves a
digest changes the engine's answers; recompute the digests only together
with an explanation of why the answers changed.
"""
import hashlib
import json
import random

import pytest

from quasicluster.algebra import LimitExceeded, explore, initial_seed
from quasicluster.surface import named_fixture

FIXTURES = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
            "polygon:6", "annulus-crosscap", "mobius-three-arc",
            "three-boundary"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def graph_digest(name, seed_kwargs, explore_kwargs):
    seed = initial_seed(named_fixture(name).build_quiver(), **seed_kwargs)
    try:
        graph = explore(seed, **explore_kwargs)
    except LimitExceeded as exc:
        graph = exc.graph
    return digest(json.dumps(graph.to_json(), sort_keys=True))


@pytest.mark.parametrize("name, seed_kwargs, explore_kwargs, expected", [
    ("mobius:4", {"coeff_free": True}, {},
     "d78b6215201adb237bf865dc28f72db9c539c37bb91991498fe3d605d5dfe029"),
    ("mobius:3", {}, {},
     "3491d24416c3caf65e9456596cb24d6bf94355619d4cd6bdb91bfada1bdf11a0"),
    ("annulus-crosscap", {}, {"max_depth": 3},
     "349b305af2e18478fa6a1eee0dc7083a11f6ab8828ad3b3b4931b2150ffc3cfc"),
    ("annulus-crosscap", {"tracking": "denominator"}, {"max_nodes": 2000},
     "5fecda54b82a41d34ea7f091ca6c5faa3dd0387d5f95c491b2c6ff3dcd880b95"),
], ids=["mobius4-coeff-free", "mobius3-coefficients",
        "annulus-crosscap-exact-depth3", "annulus-crosscap-denominator-2000"])
def test_exchange_graph_digest(name, seed_kwargs, explore_kwargs, expected):
    assert graph_digest(name, seed_kwargs, explore_kwargs) == expected


WALK_DIGESTS = {
    "mobius:1":
        "1b448a7a27ba4846d810e6633a05571ee7742069558f23a37704c9ccfc7a45cf",
    "mobius:2":
        "eddb6aeaa4c270229a514fa01881905919cc4bbf9a8c6902498b073b69a64f9b",
    "mobius:3":
        "842ed5d2a8f52941ab8f567f387f06a1a79c928758bac1c698e611a10a24730d",
    "mobius:4":
        "4fd9b8c82d739497babde3843142d27ad1c1749b01440d379d574d5e674b53bc",
    "polygon:5":
        "5d9e965e6d900a2563e0a1a348320811e5f264f16fe6f9197fef0ad9c1461555",
    "polygon:6":
        "9a53195e30613d795e3733ec43817874cab90e307fadc378e9a8a30edc28c991",
    "annulus-crosscap":
        "f56fb0f3332db7d5b7ab190e2c507c3b0ea4edfb21ef4ffe895dd5933d620bf2",
    "mobius-three-arc":
        "0c8f56328c6c4a24cccf3615c41f02d9f3f6bf1a90472c7f5881a835bccb6181",
    "three-boundary":
        "0f6c76ac273f051c9be58a79788a9d79f7416321e5378e67a5ef01847bbca2eb",
}


@pytest.mark.parametrize("name", FIXTURES)
def test_mutation_walk_digest(name):
    rng = random.Random(name)
    q = named_fixture(name).build_quiver()
    dumps = []
    for _ in range(50):
        q = q.mutate(rng.choice(q.mutable_ids()))
        dumps.append(q.dumps())
    assert digest("".join(dumps)) == WALK_DIGESTS[name]
