import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quasicluster
from quasicluster import cli, verify
from quasicluster.algebra import Seed
from quasicluster.cli import main
from quasicluster.laurent import EXPONENT_LIMIT, LaurentForm, Polynomial
from quasicluster.pquiver import PartitionedQuiver
from quasicluster.surface import (QuasiTriangulation, annulus_crosscap,
                                  mobius_fan, named_fixture)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surface_fixture_emission(tmp_path, capsys):
    out = tmp_path / "m2.json"
    code, _, _ = run(capsys, "surface", "mobius", "--marked", "2", "--out", str(out))
    assert code == 0
    tri = QuasiTriangulation.from_json(json.loads(out.read_text()))
    assert tri.validate() == []
    assert tri.signature.c == 2


def test_quiver_build_and_roundtrip(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    qpath = tmp_path / "q.json"
    assert run(capsys, "surface", "annulus-crosscap", "--out", str(tpath))[0] == 0
    assert run(capsys, "quiver", "build", "--in", str(tpath),
               "--out", str(qpath))[0] == 0
    q = PartitionedQuiver.from_json(json.loads(qpath.read_text()))
    assert q.validate() == []
    assert q.canonical_form() == annulus_crosscap().build_quiver().canonical_form()


def test_quiver_build_without_corner_field_at_size_400(tmp_path, capsys):
    data = mobius_fan(400).to_json()
    built = []
    for name in ("with", "without"):
        if name == "without":
            del data["corner_triangles"]
        tpath = tmp_path / f"t-{name}.json"
        qpath = tmp_path / f"q-{name}.json"
        tpath.write_text(json.dumps(data))
        code, _, err = run(capsys, "quiver", "build", "--in", str(tpath),
                           "--out", str(qpath))
        assert code == 0, err
        built.append(qpath.read_bytes())
    assert built[0] == built[1]


def test_mutate_prints_relation(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    qpath = tmp_path / "q.json"
    run(capsys, "surface", "annulus-crosscap", "--out", str(tpath))
    run(capsys, "quiver", "build", "--in", str(tpath), "--out", str(qpath))
    code, out, _ = run(capsys, "mutate", "--in", str(qpath), "--at", "5")
    assert code == 0
    assert "[V4] x5 * x5' = x4" in out


def test_mutate_sequence(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    qpath = tmp_path / "q.json"
    run(capsys, "surface", "mobius", "--marked", "3", "--out", str(tpath))
    run(capsys, "quiver", "build", "--in", str(tpath), "--out", str(qpath))
    code, out, _ = run(capsys, "mutate", "--in", str(qpath), "--seq", "2,2",
                       "--coeff-free")
    assert code == 0
    assert out.count("x2 * x2'") == 2


def test_explore_counts(capsys):
    code, out, _ = run(capsys, "explore", "--fixture", "mobius:2", "--coeff-free")
    assert code == 0
    assert "variables: 6" in out
    assert "closed: true" in out


def test_explore_deterministic(tmp_path, capsys):
    args = ("explore", "--fixture", "mobius:3", "--coeff-free",
            "--witnesses")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("runtime")]
    assert strip(out1) == strip(out2)


def test_explore_json_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "explore", "--fixture", "mobius:2", "--coeff-free",
        "--json", str(a))
    run(capsys, "explore", "--fixture", "mobius:2", "--coeff-free",
        "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_explore_budget(capsys):
    code, out, _ = run(capsys, "explore", "--fixture", "annulus-crosscap",
                       "--coeff-free", "--max-depth", "2")
    assert code == 0
    assert "closed: false" in out


def test_export_roundtrip(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    again = tmp_path / "t2.json"
    run(capsys, "surface", "mobius", "--marked", "2", "--out", str(tpath))
    code, _, _ = run(capsys, "export", "--json", "--in", str(tpath),
                     "--out", str(again))
    assert code == 0
    t1 = QuasiTriangulation.from_json(json.loads(tpath.read_text()))
    t2 = QuasiTriangulation.from_json(json.loads(again.read_text()))
    assert t1.build_quiver().canonical_form() == t2.build_quiver().canonical_form()


def test_export_dot(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    run(capsys, "surface", "polygon", "--marked", "5", "--out", str(tpath))
    code, out, _ = run(capsys, "export", "--dot", "--in", str(tpath))
    assert code == 0 and "digraph" in out


def test_verify_scan_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "scan")
    assert code == 0
    assert "suite scan: PASS" in out


def test_verify_corrupted_quiver_exits_2(tmp_path, capsys):
    tri = annulus_crosscap()
    data = tri.build_quiver().to_json()
    data["partition"][0] = data["partition"][0][:-1]   # drop one arrow
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--suite", "involution",
                       "--in", str(bad))
    assert code == 2
    assert "partition-coverage" in err


def test_verify_good_quiver_involution(tmp_path, capsys):
    data = annulus_crosscap().build_quiver().to_json()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--in", str(good))
    assert code == 0
    assert "0 failures" in out


def test_verify_in_on_disjoint_copies_needs_no_canonical_form(tmp_path, capsys,
                                                              monkeypatch):
    # the involution check compares labelled quivers, in linear time, and
    # needs no form up to vertex names; canonical_form would search each of
    # the k disjoint copies on its own
    one = named_fixture("polygon:5").build_quiver().to_json()
    n, m = len(one["vertices"]), len(one["arrows"])
    data = {"vertices": [], "arrows": [], "partition": []}
    for c in range(8):
        data["vertices"] += [{**v, "id": v["id"] + c * n} for v in one["vertices"]]
        data["arrows"] += [{"id": a["id"] + c * m, "src": a["src"] + c * n,
                            "tgt": a["tgt"] + c * n} for a in one["arrows"]]
        data["partition"] += [[a + c * m for a in p] for p in one["partition"]]
    path = tmp_path / "copies.json"
    path.write_text(json.dumps(data))

    def not_called(self):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(PartitionedQuiver, "canonical_form", not_called)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0 and "0 failures over 16 vertices" in out
    assert time.perf_counter() - t0 < 5


def test_invalid_input_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "mutate", "--in", str(path), "--at", "1")
    assert code == 2


def quiver_file(tmp_path, capsys, marked=3):
    tpath = tmp_path / "t.json"
    qpath = tmp_path / "q.json"
    run(capsys, "surface", "mobius", "--marked", str(marked), "--out", str(tpath))
    run(capsys, "quiver", "build", "--in", str(tpath), "--out", str(qpath))
    return qpath


def arrow_without_src(tmp_path, capsys):
    data = json.loads(quiver_file(tmp_path, capsys).read_text())
    del data["arrows"][0]["src"]
    bad = tmp_path / "nosrc.json"
    bad.write_text(json.dumps(data))
    return bad


def arrow_to_unknown_vertex(tmp_path, capsys):
    data = json.loads(quiver_file(tmp_path, capsys).read_text())
    data["arrows"][0]["src"] = 999
    bad = tmp_path / "unknown.json"
    bad.write_text(json.dumps(data))
    return bad


def edited_quiver(edit):
    """An input maker: the built mobius:3 quiver with ``edit`` applied."""
    def make(tmp_path, capsys):
        data = json.loads(quiver_file(tmp_path, capsys).read_text())
        edit(data)
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps(data))
        return bad
    return make


arrow_src_list = edited_quiver(lambda d: d["arrows"][0].update(src=[1]))
string_vertex_id = edited_quiver(lambda d: d["vertices"][0].update(id="1"))
partition_unknown_arrow = edited_quiver(lambda d: d["partition"][0].append(999))


def edited_triangulation(edit):
    """An input maker: the annulus-crosscap triangulation, whose triangle 4 is
    its quasi-triangle and which has two boundary components, with ``edit``
    applied."""
    def make(tmp_path, capsys):
        tpath = tmp_path / "t.json"
        run(capsys, "surface", "annulus-crosscap", "--out", str(tpath))
        data = json.loads(tpath.read_text())
        edit(data)
        tpath.write_text(json.dumps(data))
        return tpath
    return make


def quasi_triangle_sides(n):
    sides = [{"arc": 4, "twist": 0}, {"arc": 5, "twist": 0}, {"arc": 5, "twist": 0}]
    return edited_triangulation(lambda d: next(
        t for t in d["triangles"] if t["id"] == 4).update(sides=sides[:n]))


def corners_at_unknown_point(d):
    """Triangle 1 keeps three corners, one of them at a point without a walk."""
    d["corner_triangles"]["2"][0] = 2
    d["corner_triangles"]["99"] = [1]


def orientations(flags):
    return edited_triangulation(lambda d: d.update(boundary_orientations=flags))


duplicate_vertex = edited_quiver(lambda d: d["vertices"].append(dict(d["vertices"][0])))
duplicate_arrow = edited_quiver(lambda d: d["arrows"].append(dict(d["arrows"][0])))


def vertex_one(**fields):
    """An input maker: mobius:3 with ``fields`` set on its mutable vertex 1."""
    return edited_quiver(lambda d: next(
        v for v in d["vertices"] if v["id"] == 1).update(fields))


@pytest.mark.parametrize("make_input, argv", [
    (quiver_file, ("mutate", "--seq", "1,x")),
    (None, ("explore", "--fixture", "nope")),
    (None, ("explore", "--fixture", "mobius:abc")),
    (None, ("explore", "--fixture", "mobius:0")),
    (None, ("explore", "--fixture", "polygon:3")),
    (None, ("surface", "polygon", "--marked", "2")),
    (arrow_without_src, ("mutate", "--at", "1")),
    (arrow_without_src, ("verify",)),
    (arrow_without_src, ("export", "--json")),
    (arrow_to_unknown_vertex, ("mutate", "--at", "1")),
    (arrow_src_list, ("mutate", "--at", "1")),
    (arrow_src_list, ("verify",)),
    (arrow_src_list, ("export", "--dot")),
    (string_vertex_id, ("export", "--dot")),
    (partition_unknown_arrow, ("export", "--dot")),
    (vertex_one(kind="banana"), ("mutate", "--at", "1")),
    (vertex_one(kind=[1]), ("verify",)),
    (vertex_one(frozen="no"), ("verify",)),
    (None, ("explore", "--fixture", "mobius:2", "--json", "/nonexistent/x.json")),
    (None, ("surface", "mobius", "--marked", "2", "--out", "/nonexistent/x.json")),
    (None, ("explore", "--fixture", "mobius:2", "--max-nodes", "-3")),
    (None, ("explore", "--fixture", "mobius:2", "--max-depth", "-1")),
    (None, ("surface", "polygon", "--marked", "1001")),
    (quasi_triangle_sides(3), ("quiver", "build")),
    (quasi_triangle_sides(1), ("explore",)),
    (edited_triangulation(lambda d: d["signature"].update(g="1")), ("quiver", "build")),
    (edited_triangulation(lambda d: d["signature"].update(b=[2])), ("export", "--json")),
    (edited_triangulation(lambda d: d["triangles"][0].update(kind="banana")),
     ("quiver", "build")),
    (orientations(["x", 0]), ("quiver", "build")),
    (orientations([0]), ("quiver", "build")),
    (orientations([0, 1, 1]), ("export", "--dot")),
    (orientations([0, 2]), ("quiver", "build")),
    (edited_triangulation(lambda d: d["arcs"].append(dict(d["arcs"][0]))),
     ("quiver", "build")),
    (edited_triangulation(lambda d: d["corners"]["1"][1].update(arc=[3])),
     ("quiver", "build")),
    (edited_triangulation(corners_at_unknown_point), ("quiver", "build")),
    (duplicate_vertex, ("mutate", "--at", "1")),
    (duplicate_vertex, ("verify",)),
    (duplicate_arrow, ("mutate", "--at", "1")),
    (duplicate_arrow, ("verify",)),
    (duplicate_arrow, ("export", "--dot")),
], ids=["seq-not-int", "unknown-fixture", "fixture-size-not-int",
        "mobius-0", "polygon-3", "surface-polygon-2", "mutate-arrow-without-src",
        "verify-arrow-without-src", "export-arrow-without-src",
        "mutate-arrow-to-unknown-vertex", "mutate-arrow-src-list",
        "verify-arrow-src-list", "export-dot-arrow-src-list",
        "export-dot-string-vertex-id", "export-dot-unknown-arrow",
        "mutate-unknown-kind", "verify-kind-list", "verify-frozen-string",
        "explore-json-unwritable", "surface-out-unwritable",
        "explore-negative-max-nodes", "explore-negative-max-depth",
        "surface-polygon-above-limit", "quasi-triangle-3-sides",
        "quasi-triangle-1-side", "signature-string", "signature-list",
        "triangle-kind-unknown", "orientation-string", "orientation-too-few",
        "orientation-too-many", "orientation-2", "duplicate-arc-id",
        "walk-arc-list", "corners-at-unknown-point",
        "mutate-duplicate-vertex", "verify-duplicate-vertex",
        "mutate-duplicate-arrow", "verify-duplicate-arrow",
        "export-dot-duplicate-arrow"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, make_input, argv):
    if make_input is not None:
        argv += ("--in", str(make_input(tmp_path, capsys)))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_fixture_above_size_limit_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "explore", "--fixture", "mobius:100000",
                       "--max-nodes", "1", "--no-witnesses")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


@pytest.mark.parametrize("name", ["mobius:3", "polygon:5"])
def test_quiver_build_names_an_unknown_arc_kind(tmp_path, capsys, name):
    data = named_fixture(name).to_json()
    data["arcs"][-1]["kind"] = "banana"
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(data))
    code, out, err = run(capsys, "quiver", "build", "--in", str(tpath),
                         "--out", str(tmp_path / "q.json"))
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "arc kind" in err and "'banana'" in err
    assert not (tmp_path / "q.json").exists()


def test_exponent_overflow_exits_2_without_traceback(capsys, monkeypatch):
    """Every cluster variable of the initial seed replaced by x1^(2^31 - 1):
    the first exchange product passes the exponent limit."""
    original = cli.initial_seed

    def at_limit(quiver, **kwargs):
        seed = original(quiver, **kwargs)
        n = seed.context.nvars
        top = LaurentForm(Polynomial(n, {(EXPONENT_LIMIT,) + (0,) * (n - 1): 1}))
        return Seed(quiver, seed.context, dict.fromkeys(seed.values, top), seed.frozen)

    monkeypatch.setattr(cli, "initial_seed", at_limit)
    code, _, err = run(capsys, "explore", "--fixture", "mobius:3", "--coeff-free")
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_mutate_classifies_each_vertex_once(tmp_path, capsys, monkeypatch):
    qpath = quiver_file(tmp_path, capsys)
    calls = [0]
    original = PartitionedQuiver.classify_vertex

    def counted(self, t):
        calls[0] += 1
        return original(self, t)

    monkeypatch.setattr(PartitionedQuiver, "classify_vertex", counted)
    code, out, _ = run(capsys, "mutate", "--in", str(qpath), "--seq", "1,2,3")
    assert code == 0 and out.count("[V") == 3
    assert calls[0] == 3


@pytest.mark.parametrize("outputs", [
    ("--json", "{tmp}/g.json", "--dot", "/nonexistent/g.dot"),
    ("--json", "{tmp}/kept.json", "--dot", "/nonexistent/g.dot"),
    ("--dot", "/nonexistent/g.dot"),
    ("--json", "{tmp}"),
], ids=["dot-unwritable", "dot-unwritable-json-exists", "dot-only", "json-is-a-dir"])
def test_explore_checks_output_paths_before_exploring(tmp_path, capsys,
                                                      monkeypatch, outputs):
    def not_reached(*args, **kwargs):
        raise AssertionError("explored before checking the output paths")

    monkeypatch.setattr(cli, "explore", not_reached)
    (tmp_path / "kept.json").write_text("keep")
    argv = [a.format(tmp=tmp_path) for a in outputs]
    code, out, err = run(capsys, "explore", "--fixture", "mobius:2", *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("error: cannot write ")
    # no output file is left behind, and an existing one is not truncated
    assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]
    assert (tmp_path / "kept.json").read_text() == "keep"


def test_verify_in_counts_each_failing_vertex_once(tmp_path, capsys,
                                                   monkeypatch):
    qpath = quiver_file(tmp_path, capsys)

    def broken(seed, t, *args, **kwargs):
        # neither the quiver nor the value at t comes back after two steps
        x = seed.values[t]
        return Seed(PartitionedQuiver(seed.quiver.vertices.values(), [], []),
                    seed.context, {**seed.values, t: x * x}, seed.frozen)

    monkeypatch.setattr(cli, "mutate_seed", broken)
    monkeypatch.setattr(verify, "mutate_seed", broken)
    code, out, _ = run(capsys, "verify", "--in", str(qpath))
    assert code == 1
    assert "involution on input quiver: 3 failures over 3 vertices" in out
    assert "5 randomized (seed, vertex) pairs, 5 failures" in \
        verify.suite_involution(pairs=5).lines[0]


@pytest.mark.parametrize("argv", [["mutate", "--seq", "1,2,1,3"],
                                  ["surface", "mobius", "--marked", "3"]],
                         ids=["mutate", "surface"])
def test_closed_stdout_exits_141_without_traceback(tmp_path, argv):
    # ``quasicluster mutate ... | head -5``: the reader goes away before the
    # command writes; the command ends quietly with the documented code
    qpath = tmp_path / "q.json"
    qpath.write_text(named_fixture("mobius:3").build_quiver().dumps())
    if argv[0] == "mutate":
        argv = argv + ["--in", str(qpath)]
    src = str(Path(quasicluster.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
            "from quasicluster.cli import main; sys.exit(main(sys.argv[1:]))")
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-c", code, src, *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr and "Exception" not in done.stderr
    assert done.stderr == ""
    assert done.returncode == 141
