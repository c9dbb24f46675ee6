"""The compiled library: build, cache and load ``_window.c``, which runs
the REM loop's iterations between two stops and builds what a run starts
from.

``solver.run`` calls ``load`` for every run of one iteration or more, on
any geometry; ``sampling.AliasTable`` calls ``alias_builder`` for every
table it builds; ``problems.generate_lad`` calls ``mask_drawer`` for its
mask on a PCG64 generator, and ``problems.make_lad`` calls ``lad_builder``
to make its components and ``lad_evaluator`` for the C ``evaluate`` it
puts on their class in place of the Python body;
``FiniteSumOperator.evaluate_flat`` calls ``bulk_evaluator`` for the loop
that evaluates those components with no method call each, while their
class holds that C ``evaluate``; ``operators.empirical_full_lipschitz``
calls ``pair_ratio`` for the pairs of the baselines' Lipschitz estimate on
a CSR linear part and a geometry without simplex blocks.  A counted oracle
call is one evaluation of that component: one ``evaluate`` call from the
kernel and ``ComponentTable.refresh``, and from ``evaluate_flat`` wherever
the class's ``evaluate`` is patched or wrapped; otherwise ``evaluate_flat``
leaves it to the bulk loop.  The shared library is built with the system
``gcc`` on first use and cached per user under ``$XDG_CACHE_HOME/remvi``
(``~/.cache/remvi`` by default; the directory has mode 0700), keyed by a
hash of the source, the flags and the Python ABI, and written atomically.
It is loaded with ``ctypes.PyDLL``: the interpreter lock stays held, so
the kernel calls the draws, the component evaluations and the entropy prox
as Python calls, the component build makes Python objects, and an
exception set in C propagates.  With no compiler or a failed build every
accessor returns None, and the run, the table, the mask, the components,
their evaluation and the estimate take their Python or numpy paths, with
the same bits.
The cache keeps the ``KEEP_BUILDS`` most recently used builds per Python:
a load refreshes a build's mtime, and a new build removes the older ones.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_window.c")
CC = "gcc"
# no fused multiply-add and no -ffast-math: the kernel's arithmetic is the
# IEEE double arithmetic of the Python loop, operation for operation
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# builds kept in the cache per Python, the most recently used: source
# trees that run alternately under one cache each keep theirs
KEEP_BUILDS = 4

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t


class Window(ctypes.Structure):
    """The run state the kernel reads and advances (``Window`` in
    ``_window.c``, field for field)."""

    _fields_ = (
        [(f, ctypes.py_object) for f in (
            "sample_p", "sample_q", "draw", "comps", "x_obj", "scratch_obj",
            "values_obj", "prox_ent")]
        + [(f, _P) for f in (
            "x", "z", "S", "values", "scratch", "shadow", "old", "wsum",
            "fhat", "eval_iter", "p", "a", "A", "wx0", "w", "mu", "lo", "hi",
            "offsets", "out_all", "r_offsets", "r_all", "w_offsets", "w_all",
            "every", "ent")]
        + [(f, _N) for f in ("m", "d", "n_every", "n_ent", "lazy", "K",
                             "j2", "bad_k")]
        + [("bad_norm", ctypes.c_double)])


class Pairs(ctypes.Structure):
    """The state of the empirical Lipschitz estimate's pairs (``Pairs`` in
    ``_window.c``, field for field)."""

    _fields_ = (
        [(f, _P) for f in (
            "eu", "w", "lo", "hi", "x0", "lo_b", "span", "boxed", "indptr",
            "indices", "data", "diff", "mv", "terms")]
        + [(f, _N) for f in ("n", "wide")]
        + [(f, ctypes.c_double) for f in ("moved", "best")])


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "remvi")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.stat(path)
    if info.st_uid != os.getuid():
        raise OSError(f"kernel cache {path} belongs to another user")
    if stat.S_IMODE(info.st_mode) != 0o700:
        os.chmod(path, 0o700)
    return path


def _build():
    """The path of the built library, compiling it if the cache has none;
    None when that needs a compiler there is not, or the build fails."""
    include = sysconfig.get_paths()["include"]
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(b"\0".join([
        source, " ".join(FLAGS).encode(), include.encode(),
        str(sysconfig.get_config_var("SOABI")).encode(),
        sys.version.encode()])).hexdigest()[:24]
    # a load marks a build used (its mtime); a new build prunes the builds
    # for the same Python past the KEEP_BUILDS most recently used
    stem = f"window-{sys.implementation.cache_tag}-"
    try:
        cache = _cache_dir()
        path = os.path.join(cache, f"{stem}{key}.so")
        if os.path.exists(path):
            with contextlib.suppress(OSError):
                os.utime(path)
            return path
        cc = shutil.which(CC)
        if cc is None:
            return None
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            subprocess.run([cc, *FLAGS, "-I", include, SOURCE, "-o", tmp],
                           check=True, capture_output=True, timeout=300)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        _prune(cache, stem)
    except (OSError, subprocess.SubprocessError):
        return None
    return path


def _prune(cache, stem):
    """Remove the builds named ``stem*.so`` in ``cache`` past the
    ``KEEP_BUILDS`` most recently used; a process that has one loaded keeps
    its mapping."""
    used = []
    for entry in os.scandir(cache):
        if entry.name.startswith(stem) and entry.name.endswith(".so"):
            with contextlib.suppress(OSError):
                used.append((entry.stat().st_mtime_ns, entry.path))
    for _, path in sorted(used, reverse=True)[KEEP_BUILDS:]:
        with contextlib.suppress(OSError):
            os.remove(path)


@functools.cache
def _library():
    path = _build()
    if path is None:
        return None
    try:
        lib = ctypes.PyDLL(path)
    except OSError:
        return None
    fn = lib.rem_window
    fn.argtypes = (ctypes.POINTER(Window), _N, _N)
    fn.restype = ctypes.c_int
    fn = lib.alias_build
    fn.argtypes = (_P, _P, _N, _P, _N, _P, _P)
    fn.restype = None
    fn = lib.lad_mask
    fn.argtypes = (*[ctypes.c_uint64] * 4, _N, ctypes.c_double, _P)
    fn.restype = _N
    fn = lib.lad_components
    fn.argtypes = (*[ctypes.py_object] * 4, _P, _P, _N)
    fn.restype = ctypes.c_int
    fn = lib.lad_method
    fn.argtypes = (ctypes.py_object, ctypes.py_object)
    fn.restype = ctypes.py_object
    fn = lib.lad_flat
    fn.argtypes = (ctypes.py_object,) * 4
    fn.restype = _N
    fn = lib.pair_ratio
    fn.argtypes = (ctypes.POINTER(Pairs), _P, _P, _N, _N)
    fn.restype = _N
    fn = lib.sum_pairwise
    fn.argtypes = (_P, _N)
    fn.restype = ctypes.c_double
    return lib


def load():
    """The kernel's entry point, or None: no compiler, or a failed build."""
    lib = _library()
    return None if lib is None else lib.rem_window


def alias_builder():
    """``alias_build(scaled, small, n_small, large, n_large, prob, alias)``
    on the arrays' addresses, or None as for ``load``."""
    lib = _library()
    return None if lib is None else lib.alias_build


def mask_drawer():
    """``lad_mask(s_hi, s_lo, inc_hi, inc_lo, n, density, hits)``, the
    mask draw of ``problems.generate_lad`` on a PCG64 state, or None as for
    ``load``."""
    lib = _library()
    return None if lib is None else lib.lad_mask


def lad_builder():
    """``lad_components(cls, comps, coord, share, flat, vals, d)``, the
    component build of ``problems.make_lad``, or None as for ``load``."""
    lib = _library()
    return None if lib is None else lib.lad_components


def lad_evaluator():
    """``lad_method(cls, body)``, the method descriptor of the compiled
    ``evaluate`` that ``problems.make_lad`` puts on its component class in
    place of the Python body ``body``, or None as for ``load``."""
    lib = _library()
    return None if lib is None else lib.lad_method


def bulk_evaluator():
    """``lad_flat(comps, x, out, offsets)``, the compiled loop of
    ``FiniteSumOperator.evaluate_flat``: it evaluates the components from
    the first on while it serves them and returns how many it did, or
    None as for ``load``."""
    lib = _library()
    return None if lib is None else lib.lad_flat


def pair_ratio():
    """``pair_ratio(state, noise, unif, t0, count)``, the pairs of
    ``operators.empirical_full_lipschitz`` on a ``pair_state``, or None as
    for ``load``."""
    lib = _library()
    return None if lib is None else lib.pair_ratio


def _pointer(arr, dtype):
    """The address of a C-contiguous array of ``dtype``, checked."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"kernel array must be C-contiguous {dtype}")
    return arr.ctypes.data


def window_state(*, plan, draw, op, geom, table, x, z, a_steps, A_sums,
                 scratch, wsum, fhat, lazy, reads, writes, prox_ent):
    """The ``Window`` of one run, with every pointer resolved once.
    ``reads`` and ``writes`` are the run's Euclidean read and write layouts
    (``(flat, ends)`` each), ``prox_ent`` the no-argument call that
    proxes the entropy coordinates, and ``fhat`` takes the extrapolated
    estimate of the last iteration.  The caller keeps the arrays alive
    while the kernel runs: the ones made here are kept on the state.  The
    components are handed x, scratch and the table's values through the
    operator's ``io_view``."""
    f8, ip = np.dtype(np.float64), np.dtype(np.intp)
    p = np.ascontiguousarray(plan.p, dtype=float)
    old = np.empty(op.max_support)
    st = Window(
        sample_p=plan.sample_p, sample_q=plan.sample_q, draw=draw,
        comps=op.components, x_obj=op.io_view(x),
        scratch_obj=op.io_view(scratch), values_obj=table.out,
        prox_ent=prox_ent, m=op.m, d=op.d, n_every=geom._eu_idx.size,
        n_ent=geom._ent_idx.size, lazy=int(lazy), K=a_steps.size - 1, j2=-1,
        bad_k=0, bad_norm=0.0)
    if type(op.components) is not list or len(op.components) != op.m:
        raise ValueError("kernel needs the operator's component list")
    (r_all, r_ends), (w_all, w_ends) = reads, writes
    if (x.size != op.d or z.size != op.d or geom.d != op.d
            or table.values.size != op.out_all.size
            or scratch.size < op.max_support or fhat.size != op.d
            or table.eval_iter.dtype != np.int64 or p.size != op.m
            or r_ends.size != op.m + 1 or w_ends.size != op.m + 1
            or a_steps.size != A_sums.size):
        raise ValueError("kernel arrays do not match the operator")
    for name, arr, dtype in (
            ("x", x, f8), ("z", z, f8), ("S", table.aggregate, f8),
            ("values", table.values, f8), ("scratch", scratch, f8),
            ("fhat", fhat, f8),
            ("shadow", table._buffer, f8), ("old", old, f8),
            ("eval_iter", table.eval_iter, np.dtype(np.int64)), ("p", p, f8),
            ("a", a_steps, f8), ("A", A_sums, f8), ("wx0", geom._wx0, f8),
            ("w", geom._w, f8), ("mu", geom._mu, f8), ("lo", geom._lo, f8),
            ("hi", geom._hi, f8), ("offsets", op.offsets, ip),
            ("out_all", op.out_all, ip), ("r_offsets", r_ends, ip),
            ("r_all", r_all, ip), ("w_offsets", w_ends, ip),
            ("w_all", w_all, ip), ("every", geom._eu_idx, ip),
            ("ent", geom._ent_idx, ip)):
        setattr(st, name, _pointer(arr, dtype))
    if wsum is not None:
        st.wsum = _pointer(wsum, f8)
    st.keep = (p, old, a_steps, A_sums, wsum, fhat, reads, writes)
    return st


def pair_state(geom, linear):
    """The ``Pairs`` of an estimate on ``geom``, a geometry without simplex
    blocks, and ``linear``, a float64 CSR matrix, with its work arrays;
    ``best`` starts at -inf.  The arrays are kept on the state."""
    f8 = np.dtype(np.float64)
    lo, hi, x0, boxed, lo_b, span, moved = geom._domain
    n = geom._eu_idx.size
    if geom._ent_idx.size or n != geom.d or linear.shape != (n, n):
        raise ValueError("pairs need a Euclidean geometry and an n x n M")
    ix = np.dtype(np.int64 if linear.indices.dtype == np.int64
                  else np.int32)
    indptr = np.ascontiguousarray(linear.indptr, dtype=ix)
    indices = np.ascontiguousarray(linear.indices, dtype=ix)
    # what the C reads: rows in order within the arrays, columns within n
    nnz = indptr[-1] if indptr.size == n + 1 else -1
    if (nnz < 0 or indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1])
            or nnz > min(indices.size, linear.data.size)
            or np.any((indices[:nnz] < 0) | (indices[:nnz] >= n))):
        raise ValueError("M's CSR arrays are out of bounds")
    work = np.empty((3, n))
    st = Pairs(n=n, wide=int(ix == np.int64), moved=moved, best=-np.inf)
    for name, arr, dtype in (
            ("eu", geom._eu_idx, np.dtype(np.intp)), ("w", geom._w, f8),
            ("lo", lo, f8), ("hi", hi, f8), ("x0", x0, f8),
            ("lo_b", lo_b, f8), ("span", span, f8), ("indptr", indptr, ix),
            ("indices", indices, ix), ("data", linear.data, f8),
            ("diff", work[0], f8), ("mv", work[1], f8),
            ("terms", work[2], f8)):
        setattr(st, name, _pointer(arr, dtype))
    if boxed is not None:
        st.boxed = _pointer(boxed, np.dtype(bool))
    st.keep = (indptr, indices, work)
    return st
