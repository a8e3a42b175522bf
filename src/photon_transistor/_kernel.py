"""The compiled kernel: ``_window.c`` built, cached and loaded, and the
ctypes mirror of its ``struct shot_args``.

This is the only module that knows the kernel's source, how it is built
and how its arguments are laid out.  The library is loaded once, as a
CPython extension module whose ``METH_FASTCALL`` function
``shot(block, shot_index)`` runs every compiled shot.  ``pack_shot``
builds one block per chunk of one configuration's shots: the packed
``struct shot_args``, which holds numbers only, then the cooperativity
levels, then the chunk's rows, the shot table's own.  The entry point
finds the levels and the rows from the block's length and writes nothing
but the shot's row; a shot stores at most ``_window.c``'s
``ETA_CAPACITY`` excitations, and one that stores more runs in Python.
``engine`` computes what a shot of a configuration needs and runs every
shot of the chunk through ``pack_shot``'s result; the kernel is built on
first use, never at import.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_window.c")
_KERNEL_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_CC = "cc"
# no fused multiply-add, so every float result equals the Python engine's
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _load_kernel():
    """``_window.c`` compiled and loaded as an extension module, whose
    entry point ``shot`` runs every compiled shot; compiled only when no
    library of this source, build command, ``libnpyrandom.a`` and
    interpreter is cached yet.
    The module is registered nowhere, in ``sys.modules`` or on any module
    of this package.

    The cache is ``_KERNEL_CACHE``.  When that is not writable, the
    library is built in a private temporary directory, removed once it
    is loaded.  A new library is written under a temporary name and
    renamed into place, so a concurrent process never loads a
    half-written file; then the interpreter's older libraries are
    removed, so the cache holds one library per interpreter."""
    import glob
    import hashlib
    import importlib.util
    import sysconfig
    npyrandom = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                             "libnpyrandom.a")
    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    with open(npyrandom, "rb") as fh:
        linked = fh.read()
    tag = sys.implementation.cache_tag  # names the library, so not hashed
    key = hashlib.sha256(b"\0".join((source, np.__version__.encode(), linked,
                                     "\0".join((_CC, *_CFLAGS)).encode())))
    try:
        os.makedirs(_KERNEL_CACHE, exist_ok=True)
        private = not os.access(_KERNEL_CACHE, os.W_OK)
    except OSError:
        private = True
    cache = tempfile.mkdtemp(prefix="photon_transistor-") if private else _KERNEL_CACHE
    library = os.path.join(cache, f"_window.{tag}.{key.hexdigest()[:16]}.so")
    build = tempfile.mkdtemp(prefix="_window.", dir=cache)
    try:
        if not os.path.exists(library):
            output = os.path.join(build, "_window.so")
            subprocess.run(
                [_CC, *_CFLAGS, "-I", np.get_include(),
                 "-I", sysconfig.get_paths()["include"], "-o", output, _KERNEL_SOURCE,
                 npyrandom, "-lm"],
                check=True, capture_output=True)
            os.replace(output, library)
            for old in glob.glob(os.path.join(glob.escape(cache), f"_window.{tag}.*.so")):
                if old != library:
                    # a process that loaded it keeps its mapping
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(old)
        spec = importlib.util.spec_from_file_location("_window", library)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        shutil.rmtree(cache if private else build, ignore_errors=True)


@functools.cache
def _window_kernel():
    """The compiled kernel, ``_load_kernel``'s extension module, built on
    first use; None when it cannot be built or loaded, and shots run in
    Python."""
    try:
        return _load_kernel()
    except (OSError, ImportError, subprocess.SubprocessError):
        return None


class _ShotArgs(ctypes.Structure):
    """``struct shot_args`` of ``_window.c``, field for field: the head of
    a chunk's block."""

    _fields_ = [("master_seed", ctypes.c_uint64),
                # shot first + j writes row j of the block's n_rows rows
                ("first", ctypes.c_uint64), ("n_rows", ctypes.c_uint64),
                ("stored_mean", ctypes.c_double), ("n_levels", ctypes.c_int64),
                ("standing_wave", ctypes.c_int64),
                *((name, ctypes.c_double) for name in (
                    "coop_scale", "storage_time", "survival", "source_mean", "hop_prob",
                    "hop_ratio", "eta_floor", "delta", "empty_t", "cavity_re", "cavity_im",
                    "atom_re", "atom_im", "lorentzian", "outcoupling")),
                ("retrieval_mode", ctypes.c_int64),
                *((name, ctypes.c_double) for name in (
                    "retrieval_efficiency", "source_efficiency", "source_dark_mean",
                    "gate_efficiency", "gate_dark_mean"))]


def pack_shot(kernel, dtype: np.dtype, levels: list[float], n_rows: int, **fields) -> tuple:
    """``(shot, block, rows)``: the entry point ``shot`` of ``kernel``, the
    module of ``_window_kernel``, and one block for a chunk of
    ``n_rows`` of one configuration's shots; ``shot(block, i)`` runs shot
    ``i`` and returns whether it was refused.
    ``block`` is one ``bytearray``: the packed ``_ShotArgs``, then
    ``levels``, the flattened (eta, probability) pairs of the
    cooperativity model, as float64, then the zeroed rows.  ``fields``
    are the other ``_ShotArgs`` fields.  ``rows`` is the block's tail as
    ``n_rows`` rows of ``dtype``, the shot table's row, which ``_window.c``'s
    ``struct shot_row`` mirrors: shot ``first + j`` writes row ``j``, and
    ``shot`` refuses a shot outside the rows."""
    head = bytes(_ShotArgs(n_levels=len(levels) // 2, n_rows=n_rows, **fields))
    tail = len(head) + 8 * len(levels)
    block = bytearray(tail + dtype.itemsize * n_rows)
    block[:tail] = head + np.array(levels, np.float64).tobytes()
    return kernel.shot, block, np.frombuffer(block, dtype, offset=tail)
