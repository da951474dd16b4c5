"""Reference canonical form of a partitioned quiver.

The token search that ``PartitionedQuiver.canonical_form`` ran before it
split the paths into components of the path-sharing graph, kept verbatim as
an independent oracle: one search over every order and direction of all the
paths at once, so disjoint copies multiply its branches.  Two quivers get
equal forms exactly when they are equal up to vertex names, path order and
the direction of each path.
"""
from __future__ import annotations


def canonical_form(q) -> bytes:
    """The least token list over every order of the paths of ``q`` and the
    direction of each: a vertex as a token of its (kind, frozen) where it
    first appears and of its label after that, a separator after each path,
    then the vertices on no path.  Ties branch."""
    seqs = [seq for seq in q.itineraries() if seq]
    on_path = {v for s in seqs for v in s}
    fresh = {v.id: (1, 0, v.kind, 1 if v.frozen else 0) for v in q.vertices.values()}
    isolated = sorted((f, kind) for vid, (_, _, kind, f) in fresh.items()
                      if vid not in on_path)
    best = None

    def segment(seq, labels):
        labels = dict(labels)
        toks = []
        for vid in seq:
            if vid in labels:
                toks.append((2, labels[vid], "", 0))
            else:
                labels[vid] = len(labels)
                toks.append(fresh[vid])
        return toks, labels

    def rec(remaining, labels, acc):
        nonlocal best
        if best is not None and acc > best[:len(acc)]:
            return
        if not remaining:
            cand = acc + [(0, 0, "", 0)] + [(3, f, kind, 0) for f, kind in isolated]
            if best is None or cand < best:
                best = cand
            return
        options = []
        for idx in sorted(remaining):
            for flip in (False, True):
                seq = seqs[idx][::-1] if flip else seqs[idx]
                toks, nl = segment(seq, labels)
                options.append((toks, idx, nl))
        lo = min(t for t, _, _ in options)
        for toks, idx, nl in options:
            if toks == lo:
                rec(remaining - {idx}, nl, acc + toks + [(0, 0, "", 0)])

    rec(frozenset(range(len(seqs))), {}, [])
    return repr(best).encode()
