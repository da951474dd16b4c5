"""Command line front end: fixtures, mutation driving, exploration, export
and the verification suites.

Exit codes: 0 success, 1 property violation (a Laurent violation, or two
seeds of one cluster with different quivers), 2 invalid input (including a
fixture above the size limit and an exponent above the Laurent layer's
limit), 141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ends)
when the reader of standard output closes it early.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import verify
from .algebra import (LimitExceeded, SeedMismatch, explore, initial_seed,
                      mutate_seed, relation_text)
from .laurent import ExponentOverflow, LaurentViolation
from .pquiver import ClassificationError, PartitionedQuiver
from .surface import InvalidTriangulation, QuasiTriangulation, named_fixture


class InputError(ValueError):
    pass


def _write(text: str, out: str | None):
    if out and out != "-":
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_writable(out: str | None):
    """Raise InputError unless path ``out`` can be opened for writing, leaving
    no new file and no truncated one behind (None or "-" is standard output)."""
    if out and out != "-":
        existed = os.path.lexists(out)
        try:
            open(out, "a").close()
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
        if not existed:
            os.remove(out)


def _load_json(path: str) -> dict:
    """The JSON object in file ``path``; anything else is an input error."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, not {type(data).__name__}")
    return data


def _from_json(kind, data, path: str):
    """kind.from_json(data) checked by its validate(), with malformed fields
    and structural faults reported as input errors."""
    try:
        obj = kind.from_json(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: malformed {kind.__name__} JSON: "
                         f"{type(exc).__name__}: {exc}") from exc
    diags = obj.validate()
    if diags:
        noun = "quiver" if kind is PartitionedQuiver else "triangulation"
        raise InputError(f"invalid {noun}: {'; '.join(diags)}")
    return obj


def _fixture(name: str) -> QuasiTriangulation:
    """named_fixture(name), with unknown names and bad sizes reported as
    input errors."""
    try:
        return named_fixture(name)
    except (KeyError, ValueError) as exc:
        raise InputError(f"fixture {name!r}: {exc.args[0]}") from exc


def _load_quiver(path: str) -> PartitionedQuiver:
    data = _load_json(path)
    if "arrows" not in data:
        raise InputError(f"{path} does not look like a quiver JSON")
    return _from_json(PartitionedQuiver, data, path)


def _load_triangulation(path: str) -> QuasiTriangulation:
    data = _load_json(path)
    if "corners" not in data:
        raise InputError(f"{path} does not look like a triangulation JSON")
    return _from_json(QuasiTriangulation, data, path)


def cmd_surface(args) -> int:
    if args.name in ("mobius", "polygon"):
        if args.marked is None:
            raise InputError(f"fixture {args.name} needs --marked N")
        tri = _fixture(f"{args.name}:{args.marked}")
    else:
        tri = _fixture(args.name)
    _write(tri.dumps(), args.out)
    return 0


def cmd_quiver_build(args) -> int:
    tri = _load_triangulation(args.infile)
    _write(tri.build_quiver().dumps(), args.out)
    return 0


def cmd_mutate(args) -> int:
    q = _load_quiver(args.infile)
    seq = []
    if args.at is not None:
        seq.append(args.at)
    if args.seq:
        try:
            seq.extend(int(v) for v in args.seq.split(","))
        except ValueError as exc:
            raise InputError(f"--seq {args.seq!r}: {exc}") from exc
    if not seq:
        raise InputError("nothing to do: give --at or --seq")
    seed = initial_seed(q, coeff_free=args.coeff_free)
    for t in seq:
        if t not in seed.values:
            raise InputError(f"vertex {t} is not mutable")
        cls = seed._read().classify_vertex(t)
        print(relation_text(cls, seed))
        seed = mutate_seed(seed, t, cls)
        print(f"     x{t}' = {seed.values[t].render(seed.context)}")
    if args.out:
        _write(seed._read().dumps(), args.out)
    return 0


def cmd_explore(args) -> int:
    if args.max_nodes < 1:
        raise InputError(f"--max-nodes must be at least 1, not {args.max_nodes}")
    if args.max_depth is not None and args.max_depth < 0:
        raise InputError(f"--max-depth must be at least 0, not {args.max_depth}")
    for out in (args.json_out, args.dot_out):
        _check_writable(out)   # before exploring, so a bad path costs nothing
    if args.infile:
        tri = _load_triangulation(args.infile)
    elif args.fixture:
        tri = _fixture(args.fixture)
    else:
        raise InputError("explore needs --in or --fixture")
    seed = initial_seed(tri.build_quiver(), coeff_free=args.coeff_free,
                        tracking=args.tracking)
    t0 = time.perf_counter()
    closed = True
    try:
        graph = explore(seed, max_nodes=args.max_nodes,
                        max_depth=args.max_depth)
    except LimitExceeded as exc:
        graph = exc.graph
        closed = False
    dt = time.perf_counter() - t0
    print(f"runtime: {dt:.3f}s")
    print(f"closed: {str(closed).lower()}")
    print(f"nodes: {graph.node_count()}")
    print(f"edges: {graph.edge_count()}")
    print(f"variables: {graph.variable_count()}")
    if args.witnesses:
        ctx = seed.context
        for ser in sorted(graph.variables):
            lf, path = graph.variables[ser]
            p = ",".join(map(str, path)) or "(initial)"
            print(f"  {lf.render(ctx)}  <-  {p}")
    if args.json_out:
        _write(json.dumps(graph.to_json(), indent=2, sort_keys=True), args.json_out)
    if args.dot_out:
        _write(graph.to_dot(), args.dot_out)
    return 0


def cmd_export(args) -> int:
    data = _load_json(args.infile)
    if "arrows" in data:
        obj = _from_json(PartitionedQuiver, data, args.infile)
    elif "corners" in data:
        obj = _from_json(QuasiTriangulation, data, args.infile)
    else:
        raise InputError(f"{args.infile}: neither quiver nor triangulation JSON")
    if args.dot:
        if isinstance(obj, QuasiTriangulation):
            text = obj.build_quiver().to_dot()
        else:
            text = obj.to_dot()
    else:
        text = obj.dumps()
    _write(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.infile:
        q = _load_quiver(args.infile)
        seed = initial_seed(q)
        failures = sum(not verify.involution_holds(seed, t)
                       for t in q.mutable_ids())
        print(f"involution on input quiver: {failures} failures over "
              f"{len(q.mutable_ids())} vertices")
        return 0 if failures == 0 else 1
    names = args.suite or None
    results = verify.run_suites(names)
    ok = True
    for r in results:
        print(r.report())
        ok &= r.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quasicluster")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("surface", help="emit a builtin fixture")
    ps.add_argument("name", choices=["mobius", "polygon", "annulus-crosscap",
                                     "mobius-three-arc", "three-boundary"])
    ps.add_argument("--marked", type=int)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_surface)

    pq = sub.add_parser("quiver", help="quiver operations")
    qsub = pq.add_subparsers(dest="subcommand", required=True)
    pb = qsub.add_parser("build", help="partitioned quiver of a triangulation")
    pb.add_argument("--in", dest="infile", required=True)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_quiver_build)

    pm = sub.add_parser("mutate", help="mutate a quiver, tracing relations")
    pm.add_argument("--in", dest="infile", required=True)
    pm.add_argument("--at", type=int)
    pm.add_argument("--seq")
    pm.add_argument("--coeff-free", action="store_true")
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_mutate)

    pe = sub.add_parser("explore", help="exchange-graph exploration")
    pe.add_argument("--in", dest="infile")
    pe.add_argument("--fixture")
    pe.add_argument("--max-nodes", type=int, default=100000)
    pe.add_argument("--max-depth", type=int)
    pe.add_argument("--coeff-free", action="store_true")
    pe.add_argument("--tracking", choices=["exact", "denominator"],
                    default="exact")
    pe.add_argument("--witnesses", action=argparse.BooleanOptionalAction,
                    default=True)
    pe.add_argument("--json", dest="json_out")
    pe.add_argument("--dot", dest="dot_out")
    pe.set_defaults(func=cmd_explore)

    px = sub.add_parser("export", help="re-emit as JSON or DOT")
    px.add_argument("--in", dest="infile", required=True)
    group = px.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    px.add_argument("--out")
    px.set_defaults(func=cmd_export)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", action="append",
                    choices=sorted(verify.SUITES))
    pv.add_argument("--in", dest="infile")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the interpreter's final
        # flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidTriangulation, ClassificationError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (LaurentViolation, SeedMismatch) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
