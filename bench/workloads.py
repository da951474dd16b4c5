"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` (timed as set-up), does one
unit of work in ``unit`` (timed), and checks outputs in ``check_unit`` and
``check_final`` outside the timed region.  The engine is reached only
through its public functions, looked up on the module at call time so that
the traced run sees the wrapped versions.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle


class MoebiusExact:
    """Exact, coefficient-free closure of the Moebius strip with m = 6.

    Laurent arithmetic dominates: 7,656 exact divisions yield 52 variables.
    """

    name = "moebius-exact"
    m = 6

    def setup(self, qc, seed: int):
        quiver = qc.surface.named_fixture(f"mobius:{self.m}").build_quiver()
        return quiver, qc.algebra.initial_seed(quiver, coeff_free=True)

    def unit(self, qc, state):
        graph = qc.algebra.explore(state[1])
        return graph, graph.to_json()

    def items(self, out) -> int:
        return len(out[0].complete)

    def counts(self, out) -> dict:
        graph = out[0]
        return {"clusters": graph.node_count(), "edges": graph.edge_count(),
                "variables": graph.variable_count()}

    def reference(self, out):
        return json.dumps(out[1], sort_keys=True).encode()

    def check_unit(self, out, ref) -> list[str]:
        graph, m = out[0], self.m
        clusters = oracle.mobius_clusters(m)
        want = {"clusters": clusters, "edges": m * clusters // 2,
                "variables": oracle.mobius_variables(m)}
        problems = [f"{k} = {v}, want {want[k]}"
                    for k, v in self.counts(out).items() if v != want[k]]
        if not graph.closed:
            problems.append("graph is not closed")
        if self.reference(out) != ref:
            problems.append("to_json() differs between repetitions")
        return problems

    def check_final(self, qc, state, out, seed: int) -> dict[str, list[str]]:
        graph = out[0]
        rng = random.Random(f"{self.name}:{seed}")
        mutable = state[0].mutable_ids()
        point = {v: Fraction(rng.randint(1, 999), rng.randint(1, 999))
                 for v in mutable}
        nvars = state[1].context.nvars
        coords = [point[v] for v in mutable] + [1] * (nvars - len(mutable))
        replay = oracle.Replay(state[0], point)
        root = graph.nodes[graph.root].values
        replay_bad = []
        positive_bad = []
        for ser, (value, path) in sorted(graph.variables.items()):
            if not oracle.positive_laurent(value):
                positive_bad.append(ser.decode())
            if path:
                want = replay.at(path)[1][path[-1]]
            else:
                want = next(point[v] for v, x in root.items()
                            if x.canonical_serialize() == ser)
            if value.evaluate(coords) != want:
                replay_bad.append(f"{ser.decode()} along {path}")
        return {"audit": oracle.audit_graph(graph),
                "positive-laurent": positive_bad,
                "fraction-replay": replay_bad}

    def layer_counts(self, out) -> dict:
        graph = out[0]
        return {"max_num_terms": max(len(v.num.terms) for v, _ in graph.variables.values()),
                "edges": graph.edge_count(), "new_clusters": graph.node_count() - 1}


class CrosscapBudget:
    """Annulus with one crosscap, denominator tracking, 10,000-node budget.

    Values are denominator vectors, so vertex classification dominates; the
    graph is the largest of the three, so node storage shows in memory.
    """

    name = "crosscap-budget"
    budget = 10_000
    sample = 40        # nodes whose witness path is replayed by flips
    exact_depth = 4    # nodes up to this depth are replayed in exact tracking

    def setup(self, qc, seed: int):
        tri = qc.surface.named_fixture("annulus-crosscap")
        quiver = tri.build_quiver()
        return tri, quiver, qc.algebra.initial_seed(
            quiver, coeff_free=True, tracking="denominator")

    def unit(self, qc, state):
        try:
            return qc.algebra.explore(state[2], max_nodes=self.budget), False
        except qc.algebra.LimitExceeded as exc:
            return exc.graph, True

    def items(self, out) -> int:
        return len(out[0].complete)

    def counts(self, out) -> dict:
        graph = out[0]
        return {"nodes": graph.node_count(), "complete": len(graph.complete),
                "edges": graph.edge_count(), "variables": graph.variable_count()}

    def reference(self, out):
        return self.counts(out)

    def check_unit(self, out, ref) -> list[str]:
        if not out[1]:
            return ["the budget did not raise LimitExceeded"]
        problems = []
        counts = self.counts(out)
        if counts["nodes"] != self.budget:
            problems.append(f"{counts['nodes']} nodes at the limit, want {self.budget}")
        if counts != ref:
            problems.append(f"counts {counts} differ between repetitions ({ref})")
        return problems

    def check_final(self, qc, state, out, seed: int) -> dict[str, list[str]]:
        graph = out[0]
        tri, quiver, _ = state
        rng = random.Random(f"{self.name}:{seed}")
        flip_bad = []
        for key in rng.sample(sorted(graph.nodes), self.sample):
            t = tri
            for arc in graph.paths[key]:
                t = t.flip(arc)
            if t.build_quiver().canonical_form() != graph.nodes[key].quiver.canonical_form():
                flip_bad.append(f"flip replay of {graph.paths[key]}")
        exact = {(): qc.algebra.initial_seed(quiver, coeff_free=True)}
        exact_bad = []
        for key, path in sorted(graph.paths.items(), key=lambda kv: kv[1]):
            if len(path) > self.exact_depth:
                continue
            if path not in exact:
                exact[path] = qc.algebra.mutate_seed(exact[path[:-1]], path[-1])
            tracked = graph.nodes[key].values
            if any(qc.laurent.denominator_vector(x) != tracked[v]
                   for v, x in exact[path].values.items()):
                exact_bad.append(f"denominator vectors differ along {path}")
        return {"audit": oracle.audit_graph(graph),
                "flip-replay": flip_bad,
                "exact-replay": exact_bad}

    def layer_counts(self, out) -> dict:
        graph = out[0]
        return {"edges": graph.edge_count(), "new_clusters": graph.node_count() - 1}


class FlipCompat:
    """Every flip sequence up to length 4 from three fixtures, comparing
    flip-then-build with build-then-mutate by canonical form.

    No seeds and no Laurent arithmetic; each quiver is mutated once and then
    dropped, so per-quiver indexes cost here instead of paying off.
    """

    name = "flip-compat"
    fixtures = ("annulus-crosscap", "mobius:4", "three-boundary")
    length = 4

    def setup(self, qc, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        state = []
        for name in self.fixtures:
            tri = qc.surface.named_fixture(name)
            quiver = tri.build_quiver()
            arcs = tri.internal_arcs()
            rng.shuffle(arcs)   # visiting order only; the set of sequences is fixed
            rank = {a: i for i, a in enumerate(arcs)}
            state.append((name, tri, quiver, len(quiver.mutable_ids()), rank))
        return state

    def unit(self, qc, state):
        results = []
        for name, tri, quiver, n, rank in state:
            tally = [0, 0]

            def walk(t, q, depth):
                # the arcs of the current triangulation, so that a flip which
                # loses or adds an arc changes the pair count
                for arc in sorted(t.internal_arcs(), key=lambda a: (rank.get(a, -1), a)):
                    t2, q2 = t.flip(arc), q.mutate(arc)
                    tally[0] += 1
                    if t2.build_quiver().canonical_form() != q2.canonical_form():
                        tally[1] += 1
                    if depth + 1 < self.length:
                        walk(t2, q2, depth + 1)

            walk(tri, quiver, 0)
            results.append((name, n, *tally))
        return results

    def items(self, out) -> int:
        return sum(pairs for _, _, pairs, _ in out)

    def counts(self, out) -> dict:
        return {f"pairs[{name}]": pairs for name, _, pairs, _ in out}

    def reference(self, out):
        return None

    def check_unit(self, out, ref) -> list[str]:
        problems = []
        for name, n, pairs, mismatches in out:
            if mismatches:
                problems.append(f"{name}: {mismatches} flip/mutation mismatches")
            want = oracle.flip_sequences(n, self.length)
            if pairs != want:
                problems.append(f"{name}: {pairs} pairs, want {want}")
        return problems

    def check_final(self, qc, state, out, seed: int) -> dict[str, list[str]]:
        return {}

    def layer_counts(self, out) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (MoebiusExact(), CrosscapBudget(), FlipCompat())}
