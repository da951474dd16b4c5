"""Host-speed calibration: fixed pure-Python rounds timed beside the engine.

The host this benchmark was built on is a shared virtual machine whose speed
drifts by 20-30% in phases of minutes, in CPU time as much as in wall time.
A run therefore also times rounds of a fixed loop that uses no engine code,
and gives its times in seconds of a reference host, on which one round takes
REF_S: time * REF_S / (median round time).  Drift that slows the loop and
the engine alike cancels; a change of the engine's own speed does not touch
the loop, so it shows in full (README: Calibration).
"""
from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.1      # seconds that one round takes on the reference host
KEYS = 150_000   # dict updates per round


class _Cell:
    __slots__ = ("key", "items", "weight")

    def __init__(self, key, weight):
        self.key, self.items, self.weight = key, [], weight


class Calibration:
    """Round times of one run.

    The round does what the engine does most (tuple keys in dicts, small
    objects, lists, sets, sorting) in little memory.
    """

    def __init__(self):
        self.rounds: list[float] = []

    def run(self, seconds: float):
        """Run rounds back to back for about `seconds`, at least one."""
        spent = 0.0
        while True:
            spent += self._round()
            if spent >= seconds:
                return

    def speed(self) -> float:
        """Reference seconds per second on this host during this run."""
        return REF_S / statistics.median(self.rounds)

    def summary(self) -> str:
        q1, med, q3 = statistics.quantiles(self.rounds, n=4)
        return (f"calibration: {len(self.rounds)} rounds, median {med:.4f} s "
                f"(q1 {q1:.4f}, q3 {q3:.4f}; reference {REF_S} s)")

    def _round(self) -> float:
        gc.disable()
        try:
            t0 = time.perf_counter()
            table, cells = {}, {}
            for i in range(KEYS):
                key = (i % 17, i * 7 % 19, i % 3)   # under a thousand keys: little memory
                table[key] = table.get(key, 0) + i
                if i % 3 == 0:
                    cell = cells.get(key[:2])
                    if cell is None:
                        cell = cells[key[:2]] = _Cell(key[:2], i)
                    cell.items.append(i % 11)
                    if len(cell.items) > 8:
                        cell.items = sorted(set(cell.items))
            ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
            sets = {frozenset(k): v for k, v in ranked}
            sum(len(k) * v % 1009 for k, v in sets.items())
            sorted((c.weight, tuple(c.items), frozenset(c.key)) for c in cells.values())
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        self.rounds.append(elapsed)
        return elapsed
