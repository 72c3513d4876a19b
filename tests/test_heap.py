import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import polymap
from polymap import heap

SRC = str(Path(polymap.__file__).resolve().parents[1])

# Allocates 30 arrays of 1 MB, frees them, and repeats; prints the minor
# faults of every round after the first.  With glibc's default thresholds
# the 30 MB freed at the heap top is trimmed each round and faults back in
# (about 7,700 faults a round); with `heap.settle()` it stays in the heap.
ROUNDS = """
import resource
import numpy as np
import polymap
def round_():
    arrays = [np.ones(1 << 17) for _ in range(30)]
    del arrays
round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")


def faults_of_rounds(**env):
    clean = {k: v for k, v in os.environ.items() if k not in heap._TUNABLE_VARS}
    clean["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", ROUNDS], env={**clean, **env},
                         capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


@glibc_only
def test_settle_sets_both_thresholds():
    assert heap.settle() is True


@glibc_only
def test_freed_arrays_fault_in_no_more():
    # Ten rounds re-touch 300 MB; a few hundred faults at most are Python's own.
    assert faults_of_rounds() < 1000
    # The same rounds at glibc's default trim threshold do fault: the check
    # above can fail.
    assert faults_of_rounds(MALLOC_TRIM_THRESHOLD_=str(128 * 1024)) > 10_000


def test_environment_tunables_win(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", str(128 * 1024))
    assert heap.settle() is False
