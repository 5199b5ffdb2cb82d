"""Speed probe: how fast this machine runs interpreter and numpy code now.

A shared virtual machine lends its vCPUs from a busy host, and their
speed swings by a quarter and more within seconds and over minutes, in
wall and CPU time alike. The probe runs a fixed mix of bytecode and a
numpy pass over an L2-sized array around each timed step of a pass
(inside a ``verify`` process, between its checks and products), with
nothing running beside it. run.py scales the step's time by ``REFERENCE_S / probe``:
the time the step would take at the speed where the probe takes
``REFERENCE_S``. On such a machine this cut the run-to-run spread of
pass times from about 0.2 to under 0.08.
"""

from __future__ import annotations

import time

import numpy as np

# a typical probe time on a shared 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4), so scaled times read about as seconds there
REFERENCE_S = 2.5e-4

# preallocated, so that the probe reads the same in a fresh interpreter
# as in one whose allocator has grown its heap; fresh arrays of this size
# are mapped and faulted in until it has
_A = np.linspace(0.0, 1.0, 1 << 15)
_B = np.empty_like(_A)


def once() -> float:
    """Seconds for one run of the probe."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(3000):
        x += i * 0.5
    np.multiply(_A, 1.5, out=_B)
    np.subtract(_B, 0.2, out=_B)
    np.clip(_B, 0.0, 1.0, out=_B).sum()
    return time.perf_counter() - t0


def speed(repeats: int = 3) -> float:
    """Best probe time over ``repeats`` runs, in seconds."""
    return min(once() for _ in range(repeats))

