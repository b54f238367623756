"""Keep the workers' task memory resident, and count the page faults a task takes.

A task allocates the same few hundred KiB arrays as the one before it:
one per column it reads and per expression temporary. With glibc's
default policy, arrays of 128 KiB or more are mapped and unmapped one by
one, and the freed top of a worker's arena goes back to the kernel when a
task ends. The next task then faults every one of those pages in again,
and the workers contend on the process's memory-map lock while they do.
Raising the two thresholds below keeps those pages in the arenas.

glibc gives each thread an arena of its own, and hands a dead thread's
arena to the next new thread only once that thread has fully exited,
which a Python-level join does not wait for. A run whose pool started new
threads right after the last run's pool was joined would therefore often
get a fresh arena and fault its pages in again, and every arena so made
keeps its pages. So the workers outlive a run: the process keeps one
pool per worker count (:func:`worker_pool`), which `run`, `fill` and the
dataset generator share.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Measured on the demo job at 65,536 entries per task: a worker's arena
# holds 3.8 MiB between `hist` tasks and 4.9 MiB between `reduce` tasks,
# and a task's largest array is the 1 MiB event index of a fold over
# Muon_pt. Arrays up to MMAP_THRESHOLD come from the arena, and an arena
# keeps up to TRIM_THRESHOLD of free memory at its top, so a whole task's
# working set stays resident. Smaller pairs left faults in: 1 MiB / 4 MiB
# 500-800 per job, 2 MiB / 4 MiB up to 126 in 40 jobs. A task whose
# working set is larger faults its excess in, as under glibc's defaults.
MMAP_THRESHOLD = 2 << 20
TRIM_THRESHOLD = 8 << 20


@functools.cache
def keep_task_memory() -> bool:
    """Apply the allocator policy once per process; True where mallopt took it.

    Does nothing where the C library has no ``mallopt`` (it is not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    took = [mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    return all(took)  # mallopt returns 1 on success and 0 on failure


@functools.cache
def worker_pool(count: int) -> ThreadPoolExecutor:
    """The process's ``count`` worker threads, shared by every run of that many workers.

    The pool lives as long as the process, beside the pools of other
    counts, so a run never discards threads that another count made. Runs
    made at the same time from several threads share the pool's workers.
    """
    return ThreadPoolExecutor(count, thread_name_prefix="treeduce-worker")


# a forked child inherits the pool but none of its threads
os.register_at_fork(after_in_child=worker_pool.cache_clear)


try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # RUSAGE_THREAD is Linux-only

    def thread_minor_faults() -> int:
        return 0

else:

    def thread_minor_faults() -> int:
        """Minor page faults the calling thread has taken so far."""
        return getrusage(RUSAGE_THREAD).ru_minflt
