"""Fixture: a second process world outside the transport modules."""

# seeded violations: thread-confinement (fork, shared mappings)
import mmap
import os
from multiprocessing import shared_memory


def split():
    shared = mmap.mmap(-1, 1), shared_memory.SharedMemory(create=True, size=1)
    return os.fork(), shared
