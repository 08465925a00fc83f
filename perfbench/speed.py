"""The machine's speed, sampled between operations with a fixed reference.

On a shared host the speed of a Python-bound loop drifts by up to a third
within seconds and by a fifth between runs a few minutes apart.  A fixed
piece of reference work, timed between operations, slows down with it: an
operation's wall time scaled by REF_S over the median reference time near
it drifts far less (see README.md).  The reference is the benchmark's own
code, so no change to mdpwave changes its time.
"""
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

REF_S = 0.0015      # the reference's time at the speed scaled times are given in
REF_SHARE = 0.1     # reference time kept at this share of the operations' time
REF_WINDOW_S = 0.5  # reference samples ending this near an operation scale it
PRIME_S = 0.2       # reference time before the first operation

_X = np.linspace(-3, 3, 1111)


def reference():
    """About 1.5 ms of the kinds of work mdpwave does: a recursive walk over
    a tree of tuples, a sum of Fractions, numpy on default-grid-sized arrays
    and dict inserts."""
    def tree(d):
        return (d,) if d == 0 else (tree(d - 1), tree(d - 1), d)

    def walk(t):
        return 1 if len(t) == 1 else walk(t[0]) + walk(t[1]) + 1

    nodes = walk(tree(9))
    total = sum(Fraction(i, i + 1) for i in range(1, 60))
    y = _X
    for _ in range(20):
        y = np.sin(y) * _X + np.exp(-_X * _X) / (1 + _X * _X)
    table = {(i, i % 7): 3 * i for i in range(2000)}
    return nodes, total, float(y.sum()), len(table)


class Speed:
    """Reference samples with the times they ended.  `after(busy)` follows
    each timed operation of `busy` seconds and runs the reference until its
    total time is REF_SHARE of the operations' total; `scale(start, end)`
    is the factor for an operation timed from start to end."""

    def __init__(self):
        self.ends = []
        self.times = []
        for _ in range(20):     # warm numpy and the allocator, unrecorded
            reference()
        self.busy = PRIME_S / REF_SHARE
        self.spent = 0.0
        self.after(0.0)         # samples just before the first operation
        self.busy = self.spent = 0.0

    def after(self, busy):
        self.busy += busy
        while self.spent < REF_SHARE * self.busy:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
            self.ends.append(end)
            self.times.append(end - start)
            self.spent += end - start

    def scale(self, start, end):
        lo = bisect_left(self.ends, start - REF_WINDOW_S)
        hi = bisect_right(self.ends, end + REF_WINDOW_S)
        return REF_S / statistics.median(self.times[lo:hi])
