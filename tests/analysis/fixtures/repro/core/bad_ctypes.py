"""Fixture: foreign code loaded outside repro/kernels/native.py."""

# seeded violation: native-confinement (no index check guards this call)
import ctypes


def call_unchecked(path, index):
    return ctypes.CDLL(path).gather(index)
