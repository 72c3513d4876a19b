"""Keep freed arrays in the C heap instead of handing them back to the kernel.

A training step, an inference call or an evaluation allocates and frees
numpy arrays of up to a few MB each: activations, conv columns, gradients
and rasters.  glibc serves an allocation above its mmap threshold with a
fresh mapping and unmaps it on free, and it returns the top of the heap to
the kernel once more than its trim threshold lies free there.  Both
thresholds start at 128 kB and rise only when a mapped block is freed, so
which arrays get mapped, and how much heap is trimmed, depends on the
allocation history.  Every page handed back faults in again on the next
call.  On a 2-core x86-64 Linux box a benchmark train step took from 0 to
about 3,800 minor faults and up to 8 ms of system time, varying from call
to call and from run to run; an eval call took about 2,500 faults and 3 ms.

`settle()` fixes both thresholds above any array polymap makes at the
desk-scale configurations, so freed blocks are reused from the heap: the
same train steps took a median of 0 faults, eval calls about 5, and peak
RSS did not change.  It is called once, when `polymap` is imported.  It
does nothing outside glibc, and nothing when the process's environment
already sets malloc tunables, so a caller's own settings win.
"""
from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit hosts; the trim threshold is twice
# it, as glibc's own dynamic adjustment sets it.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_TUNABLE_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def settle() -> bool:
    """Fix glibc's mmap and trim thresholds; True when both were set."""
    if any(name in os.environ for name in _TUNABLE_VARS):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
