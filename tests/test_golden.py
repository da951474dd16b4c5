"""Pinned SHA-256 digests of exploration, mutation, classification and flip
output.

The JSON export is deterministic by design, so a refactor of the surface,
quiver or exchange layers must reproduce these bytes exactly.  A change that moves a
digest changes the engine's answers; recompute the digests only together
with an explanation of why the answers changed.
"""
import hashlib
import json
import random

import pytest

import pquiver_reference as reference
from quasicluster.algebra import LimitExceeded, explore, initial_seed
from quasicluster.cover import lift
from quasicluster.surface import named_fixture

FIXTURES = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
            "polygon:6", "annulus-crosscap", "mobius-three-arc",
            "three-boundary"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def explored(name, seed_kwargs, explore_kwargs):
    seed = initial_seed(named_fixture(name).build_quiver(), **seed_kwargs)
    try:
        return explore(seed, **explore_kwargs)
    except LimitExceeded as exc:
        return exc.graph


def graph_digest(name, seed_kwargs, explore_kwargs):
    graph = explored(name, seed_kwargs, explore_kwargs)
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


@pytest.mark.parametrize("name, seed_kwargs, explore_kwargs, expected", [
    ("mobius:5", {"coeff_free": True}, {},
     ("74d44670ae7e6f12bb713a9a356a9700adaa948aef6487baddb79b13a2d2a492",
      "8e1557d6cc0019fdd008b768d1b7ce08020651e54158fa75917c8a99a3760454")),
    ("mobius:6", {"coeff_free": True}, {},
     ("19b1d8ebc96c7ae0ab40cc17510a101b8024cbfdba767d2fdce411d9e5567952",
      "a7216da974a14be75da439943abcc3547df3607f9232fd324815a448fbbd6c2c")),
    ("annulus-crosscap", {"tracking": "denominator"}, {"max_nodes": 10000},
     ("f8308ba13d409fcafb4b893082322be02fd5b1c910862c55dad96c6ca7f9ede4",
      "ca2ef9e8ee625fbca5c800fbfc1920bc2f771b873e238622bcc0baab3a6ba364")),
], ids=["mobius5-coeff-free", "mobius6-coeff-free",
        "annulus-crosscap-denominator-10000"])
def test_export_digests(name, seed_kwargs, explore_kwargs, expected):
    """The JSON and the DOT export of one exploration each."""
    graph = explored(name, seed_kwargs, explore_kwargs)
    assert (digest(json.dumps(graph.to_json(), sort_keys=True)),
            digest(graph.to_dot())) == expected


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


FLIP_WALK_DIGESTS = {
    "mobius:1":
        "59767b807825219128d4559a9d9d21530e602a27c840f0d6520b6bcc6dabfcb3",
    "mobius:2":
        "325ba226b3b9c4c5e550780cc0b004b47afe28ccf26374b6cc0fe57d5442743c",
    "mobius:3":
        "4f5c451308935719700e5abb9130d60dbbcd1ab4ed2bd0729f607ff615365f6a",
    "mobius:4":
        "458b45823dbbe981b1b69a67e3d30245812b035600cc752e8baff5b3f48c36da",
    "polygon:5":
        "04a939ab98c24ff63f22695da5613fa460dd48c95d00c8e3afa8708f31eb485f",
    "polygon:6":
        "2860f2bbe56cc8c89c6eb22d3c80d98b6b6f9124dbe3200113b0ab8409e0e045",
    "annulus-crosscap":
        "1f01f7ba080a3a5bb466566d00239469120385a73276e93f4ab0fb1fe58fbad5",
    "mobius-three-arc":
        "ffed406e6ad5b6beb38c0eec73276b6259b71936d1baf6653f759b18ff3b109b",
    "three-boundary":
        "0fdb4d5ed4da19063c818ab9e51a28a3f71347c0cbda7fb8d5e632458236e89f",
}


@pytest.mark.parametrize("name", FIXTURES)
def test_flip_walk_digest(name):
    """60 random flips; each step's triangulation, its quiver and, where it
    has no quasi-arc, its lift to the double cover."""
    rng = random.Random(name)
    t = named_fixture(name)
    h = hashlib.sha256()
    for _ in range(60):
        t = t.flip(rng.choice(t.internal_arcs()))
        h.update(t.dumps().encode())
        h.update(t.build_quiver().dumps().encode())
        if not t.quasi_arcs():
            h.update(lift(t).lifted.dumps().encode())
    assert h.hexdigest() == FLIP_WALK_DIGESTS[name]


CLASSIFICATION_WALK_DIGESTS = {
    "mobius:1":
        "c0d550c0a150481a7ee66d10b78b762cc4c896d1a4dde7a2cedbe48d7de76787",
    "mobius:2":
        "fed25460c2b77ca9114cf26cb576605fa377ab3df272507a20b1d73f77472889",
    "mobius:3":
        "ccf73783f61fc92887ac161d2fe759e8701ab4f13ee714856355193dea6e1272",
    "mobius:4":
        "6f863f7e2858239ffcba193df116feac4f98af47f9dc71823f2fa98417468306",
    "polygon:5":
        "9efcba5a0d8069e0bfed64c3131e5c2bbc920beebbd111224961326a981311a4",
    "polygon:6":
        "98b03323adc2990a17351ce3d1a743aa3e686a7172ea5b24cb36e819bdee89d5",
    "annulus-crosscap":
        "2732b48da98f547cbf0a7b634892a3c2690acb101a8a1876104991524ce20c5f",
    "mobius-three-arc":
        "525e23b9237bb4cb49711966e67eff97aa41a0ab2826e6299fc2c6eaefb1a54d",
    "three-boundary":
        "eaf300cf88bc70c483cce880442710c804e571d89f4fe12e592750290a5a5f56",
}


@pytest.mark.parametrize("name", FIXTURES)
def test_classification_walk_digest(name):
    """The classification of every mutable vertex at every step of the
    mutation walk above: roles, closing arrows and product order."""
    rng = random.Random(name)
    q = named_fixture(name).build_quiver()
    h = hashlib.sha256()
    for _ in range(50):
        q = q.mutate(rng.choice(q.mutable_ids()))
        for t in q.mutable_ids():
            h.update(repr(q.classify_vertex(t)).encode())
    assert h.hexdigest() == CLASSIFICATION_WALK_DIGESTS[name]


CANONICAL_WALK_DIGESTS = {
    "mobius:1":
        "831f583f1631aa3139a62f3de2dff607b4dd697ffebedf880e36ad7b51be754e",
    "mobius:2":
        "6f85cc317a8fd503e4cc85da97a1f3e239e61304d25da907c3538a76cc68b690",
    "mobius:3":
        "2c847e2351d7b28704c3a59f80d44472c3baeaa935dea59bc32e07477297bd34",
    "mobius:4":
        "5bab8d3a1ee4ef5edc45520024142bcf8852bcfedb06850738565c510ce997ad",
    "polygon:5":
        "291d6d3a44c8b820d204de6699f9a55309fdbbbf4910f4dea48740d3300271f8",
    "polygon:6":
        "7ff0ab7293e1a6e515e0ee4dd2b3192312393cef7e0ddcf3d50d239ce8fa31c6",
    "annulus-crosscap":
        "f8a19731c923a62ae8b987771c1bdd748c924c3bf98fb0a73cee2bd3350c4367",
    "mobius-three-arc":
        "644449c2eadd3a67c6e7540e39bed81493780b95460232d2c2f511f6f3701cf4",
    "three-boundary":
        "ddf0667f3550f740acbdb99f19bf8a26587bcab4278bfd25e4bd5bfabd47715b",
}


@pytest.mark.parametrize("name", FIXTURES)
def test_canonical_form_walk_digest(name):
    """The canonical form of each step's quiver along the flip walk above.
    Two steps share a form exactly when they share the reference form, the
    token search the digests were first pinned with."""
    rng = random.Random(name)
    t = named_fixture(name)
    h = hashlib.sha256()
    forms, refs = [], []
    for _ in range(60):
        t = t.flip(rng.choice(t.internal_arcs()))
        q = t.build_quiver()
        forms.append(q.canonical_form())
        refs.append(reference.canonical_form(q))
        h.update(forms[-1])
    assert len(set(forms)) == len(set(refs)) == len(set(zip(forms, refs)))
    assert h.hexdigest() == CANONICAL_WALK_DIGESTS[name]
