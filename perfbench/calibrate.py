"""How fast the machine runs interpreter-bound Python right now.

Machines shared with other tenants change speed by tens of percent over
seconds and minutes, and CPU time slows down with wall time, so raw
seconds from two runs minutes apart are not comparable.  The benchmark
times this fixed kernel after every set-up and pass, on as many CPUs at
once as the workload uses, and reports its times in *reference seconds*:
measured seconds × :func:`scale` of the kernel times taken meanwhile.

The kernel uses no ``repro`` code, and it starts only after the pass's
child processes have ended and its file writes are flushed, so the
pipeline can move it only through what outlives both (for example a
warmer or colder page cache).  It mixes what the pipeline does most
(string keys, dict lookups, small objects, pointer chasing, a sort) over
a working set of a few megabytes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time

#: Kernel seconds on the reference machine: a typical kernel time on a
#: 2-vCPU Intel Xeon VM (single runs ranged 0.05-0.12 s there).
REFERENCE_S = 0.1

#: How strongly a pipeline time follows the kernel's.  The kernel is pure
#: interpreter work; the pipeline also waits on pipes, process wake-ups
#: and file writes, so it speeds up and slows down less than the kernel
#: when the machine changes speed, and a few kernel runs only estimate
#: that speed.  Over 40 back-to-back passes on that VM, the least-squares
#: slope of log pass time on log kernel time was 0.64 (``fig10-replay``)
#: and 0.69 (``fig10-cold``).  A full scale (1.0) overcorrected: one
#: ten-seed set of ``fig10-replay`` had latency spreads of 0.18-0.23.
SPEED_EXPONENT = 0.65


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: int, next_node: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = next_node


def kernel_seconds(size: int = 30000) -> float:
    """Wall seconds of one run of the fixed kernel.

    The collector is off while it runs, so a collection cannot land in
    some runs and not in others.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[str, int] = {}
        head = None
        for i in range(size):
            key = f"k{i * 7919 % size}"
            table[key] = table.get(key, 0) + i
            head = _Node(key, i, head)
        total = 0
        while head is not None:
            total += table[head.key] & 0xFF
            head = head.next
        words = sorted(table, key=lambda k: (len(k), k))
        total += len("".join(words[::97]))
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if total < 0:  # keeps the work observable
        raise AssertionError
    return elapsed


def trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """Mean of ``values`` without the highest and lowest ``share``.

    A mean, not a median: the machine flips between a fast and a slow
    state, so kernel times are bimodal, and a median jumps between the two
    modes where the mean follows the share of time spent slow.  The trim
    keeps one stalled kernel run from moving it.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.mean(ordered[cut : len(ordered) - cut])


def scale(kernels: list[float]) -> float:
    """Factor from measured to reference seconds, given the kernel times
    taken while the measured work ran."""
    return (REFERENCE_S / trimmed_mean(kernels)) ** SPEED_EXPONENT


def _kernel_loop(conn) -> None:
    while True:
        repeats = conn.recv()
        if not repeats:
            break
        conn.send([kernel_seconds() for _ in range(repeats)])
    conn.close()


class Calibrator:
    """Kernel timings where the workload's work runs.

    ``cpus`` worker processes live until :meth:`close`.  Each
    :meth:`seconds` call first lets what the last pass left behind end
    (its child processes, its unwritten file data), then runs the kernel
    ``repeats`` times on all workers together and returns every time, so
    a slowdown on any CPU the workload uses shows.
    """

    def __init__(self, cpus: int) -> None:
        # Forked, not spawned: a spawn start launches multiprocessing's
        # resource tracker, a process that outlives the benchmark.
        context = multiprocessing.get_context("fork")
        self._workers = []
        for _ in range(cpus):
            parent, child = context.Pipe()
            process = context.Process(target=_kernel_loop, args=(child,), daemon=True)
            process.start()
            child.close()
            self._workers.append((process, parent))

    def seconds(self, repeats: int = 3) -> list[float]:
        own = {process.pid for process, _ in self._workers}
        for child in multiprocessing.active_children():
            if child.pid not in own:
                child.join()
        os.sync()
        for _, conn in self._workers:
            conn.send(repeats)
        return [t for _, conn in self._workers for t in conn.recv()]

    def close(self) -> None:
        for process, conn in self._workers:
            conn.send(0)
            conn.close()
            process.join()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
