"""The compiled kernel: ``_window.c`` built, cached and loaded with ctypes,
and the ctypes mirror of the arguments of its ``shot``.

This is the only module that knows the kernel's source, how it is built
and how its arguments are laid out.  ``engine`` computes what a shot of
a configuration needs, allocates a chunk's block of rows, and runs every
shot of the chunk through ``pack_shot``'s result, which writes each
record into its row; the kernel is built on first use, never at import.
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


def _load_kernel() -> ctypes.CDLL:
    """``_window.c`` compiled and loaded; compiled only when no library of
    this source, numpy version and interpreter is cached yet.

    The cache is ``_KERNEL_CACHE``.  When that is not writable, the
    library is built in a private temporary directory, removed once it
    is loaded.  A new library is written under a temporary name and
    renamed into place, so a concurrent process never loads a
    half-written file; then the interpreter's older libraries, and the
    untagged ``_window.<key>.so`` of earlier versions, are removed, so the
    cache holds one library per interpreter."""
    import glob
    import hashlib
    import sysconfig
    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    tag = sys.implementation.cache_tag  # names the library, so not hashed
    key = hashlib.sha256(b"\0".join((source, np.__version__.encode())))
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
                 os.path.join(os.path.dirname(np.__file__), "random", "lib",
                              "libnpyrandom.a"), "-lm"],
                check=True, capture_output=True)
            os.replace(output, library)
            # the untagged key is exactly 16 hex digits, so that no other
            # interpreter's _window.<cache tag>.<key>.so matches
            escaped = glob.escape(cache)
            stale = glob.glob(os.path.join(escaped, f"_window.{tag}.*.so"))
            stale += glob.glob(os.path.join(escaped, "_window." + "[0-9a-f]" * 16 + ".so"))
            for old in stale:
                if old != library:
                    # a process that loaded it keeps its mapping
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(old)
        return ctypes.CDLL(library)
    finally:
        shutil.rmtree(cache if private else build, ignore_errors=True)


@functools.cache
def _window_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, ``_window.c`` as a ctypes library, built on
    first use; None when it cannot be built or loaded, and shots run in
    Python."""
    try:
        return _load_kernel()
    except (OSError, subprocess.SubprocessError):
        return None


class _ShotArgs(ctypes.Structure):
    """``struct shot_args`` of ``_window.c``, field for field."""

    _fields_ = [("master_seed", ctypes.c_uint64), ("shot_index", ctypes.c_uint64),
                # the chunk's block of rows, engine.ShotRecord's fields in order
                ("rows", ctypes.POINTER(ctypes.c_int64)), ("first", ctypes.c_uint64),
                ("n_rows", ctypes.c_uint64),
                ("stored_mean", ctypes.c_double), ("n_levels", ctypes.c_int64),
                ("standing_wave", ctypes.c_int64),
                ("levels", ctypes.POINTER(ctypes.c_double)), ("coop_scale", ctypes.c_double),
                ("storage_time", ctypes.c_double), ("survival", ctypes.c_double),
                ("source_mean", ctypes.c_double), ("eta_capacity", ctypes.c_int64),
                ("window", ctypes.POINTER(ctypes.c_double)),
                *((name, ctypes.c_double) for name in (
                    "hop_prob", "hop_ratio", "eta_floor", "delta", "empty_t", "cavity_re",
                    "cavity_im", "atom_re", "atom_im", "lorentzian", "outcoupling")),
                ("retrieval_mode", ctypes.c_int64),
                *((name, ctypes.c_double) for name in (
                    "retrieval_efficiency", "source_efficiency", "source_dark_mean",
                    "gate_efficiency", "gate_dark_mean"))]


_ETA_CAPACITY = 1024  # stored excitations a compiled shot holds; more run in Python


def pack_shot(kernel: ctypes.CDLL, levels: list[float], rows: np.ndarray, first: int,
              **fields) -> tuple:
    """``(shot, args, byref(args))``: ``kernel``'s ``shot`` and its
    arguments, packed once for a chunk of one configuration's shots.
    ``levels`` are the flattened (eta, probability) pairs of the
    cooperativity model and ``fields`` the other ``_ShotArgs`` fields but
    ``shot_index``, which is set per shot.  ``rows`` is the chunk's block,
    a C-contiguous ``(n, 9)`` int64 array that must outlive the
    arguments: shot ``first + j`` writes row ``j``, and ``shot`` refuses
    a shot outside the block.  The arguments hold a window of
    ``_ETA_CAPACITY`` etas."""
    if rows.dtype != np.int64 or rows.ndim != 2 or rows.shape[1] != 9 \
            or not rows.flags.c_contiguous or not rows.flags.writeable:
        raise ValueError("rows must be a writeable C-contiguous (n, 9) int64 array")
    args = _ShotArgs(n_levels=len(levels) // 2, levels=(ctypes.c_double * len(levels))(*levels),
                     rows=rows.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)), first=first,
                     n_rows=len(rows), eta_capacity=_ETA_CAPACITY,
                     window=(ctypes.c_double * (6 + _ETA_CAPACITY))(), **fields)
    # the 64-bit seed and shot index travel in the struct, passed by a
    # prebuilt reference: without argtypes, which doubled the call time,
    # ctypes would pass a Python int as a 32-bit C int
    return kernel.shot, args, ctypes.byref(args)
