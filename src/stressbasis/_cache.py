"""The cache of eigenbases and FEM references: its directory, key hash,
file layout, build identity and get-or-build rule.

A cache file is a tag line (say ``SBBASIS 2``), then an npz payload whose
member ``meta`` holds the sorted JSON of the file's meta, so the meta sits
under a zip CRC-32 like every array. The tag names the layout only.

A caller names what it builds by a content key (mesh, mode count, load, ...).
The file is named by the digest of that key and stores the key plus the
identity of the build: the package's sources and the numpy, scipy and
OpenBLAS builds. A file written by other code or other libraries is not
trusted; it is rebuilt under the same name, so the directory keeps one file
per content key.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import scipy

# the package whose sources enter the build identity
_PACKAGE = Path(__file__).resolve().parent


def cache_dir() -> str:
    return os.environ.get("SB_CACHE_DIR") or \
        os.path.join(os.path.expanduser("~"), ".cache", "stressbasis")


def digest(payload: dict) -> str:
    """16 hex digits of the SHA-256 of the sorted JSON of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _openblas(package, symbol: str, argtypes: tuple = (),
              restype=ctypes.c_int):
    """The function ``symbol`` of the OpenBLAS bundled with ``package``
    (numpy or scipy); None when it is not there."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = list(argtypes), restype
        return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Both bundled OpenBLAS libraries, scipy's and numpy's, at one thread
    for the body, and their previous counts restored after it, also on an
    exception. Yields whether both are at one thread. A library already at
    one thread is left alone, so an entry inside another changes and
    restores nothing. Where a library or its symbols are missing nothing is
    set, and the yield is False. The counts are process-wide, so entries
    are made from one thread; the class-solve workers enter none.

    At one thread a dense product's sums are split one way, so its bytes
    do not depend on ``OPENBLAS_NUM_THREADS``, and it holds one set of
    packing buffers instead of one per thread."""
    libs = [(_openblas(pkg, f"scipy_openblas_get_num_threads{sfx}"),
             _openblas(pkg, f"scipy_openblas_set_num_threads{sfx}",
                       (ctypes.c_int,), None))
            for pkg, sfx in ((scipy, ""), (np, "64_"))]
    if any(fn is None for pair in libs for fn in pair):
        yield False
        return
    saved = [(get(), set_) for get, set_ in libs]
    for count, set_ in saved:
        if count != 1:
            set_(1)
    try:
        yield True
    finally:
        for count, set_ in saved:
            if count != 1:
                set_(count)


def build_identity() -> dict:
    """What builds a cache file's content besides its key: the SHA-256 of
    the package's modules (by relative name and bytes, in sorted order), the
    numpy and scipy versions, and the configuration strings of the OpenBLAS
    bundled with scipy and of the one bundled with numpy (None where one is
    not there; the string names the kernel picked for the CPU). Computed on
    every lookup, in about 1 ms."""
    sources = hashlib.sha256()
    for rel in sorted(p.relative_to(_PACKAGE).as_posix()
                      for p in _PACKAGE.rglob("*.py")):
        data = (_PACKAGE / rel).read_bytes()
        sources.update(f"{rel}\0{hashlib.sha256(data).hexdigest()}\n"
                       .encode())
    configs = (_openblas(scipy, "scipy_openblas_get_config",
                         restype=ctypes.c_char_p),
               _openblas(np, "scipy_openblas_get_config64_",
                         restype=ctypes.c_char_p))
    return {"sources": sources.hexdigest(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": [None if get is None else get().decode()
                         for get in configs]}


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: str, *parts):
    """``parts`` written in order to ``path``, so no caller joins them."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-sb-")
    try:
        with os.fdopen(fd, "wb") as f:
            for data in parts:
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tagged(path: str, tag: str, meta: dict, arrays: dict):
    payload = io.BytesIO()
    text = json.dumps(meta, sort_keys=True).encode()
    np.savez(payload, meta=np.frombuffer(text, np.uint8), **arrays)
    atomic_write_bytes(path, tag.encode() + b"\n", payload.getbuffer())


def read_tagged(path: str, tag: str, key: dict | None = None):
    """(meta, arrays) of a ``tag`` file; ValueError unless it is trusted: the
    tag matches, every npz member passes its CRC-32 (checked up front, as
    ``np.load`` may stop short of a member's end) and, given ``key``, the
    meta's ``key`` equals it. The payload is read from the open file, so
    the call holds the arrays and no copy of the file."""
    head = tag.encode() + b"\n"
    with open(path, "rb") as f:
        if f.read(len(head)) != head:
            raise ValueError(f"no {tag!r} tag line")
        try:
            # zipfile reads a payload behind a prefix in place
            with zipfile.ZipFile(f) as zf:
                if zf.testzip() is not None:
                    raise ValueError("bad CRC-32 in the payload")
            f.seek(len(head))
            with np.load(f) as npz:
                arrays = {k: npz[k] for k in npz.files}
            meta = json.loads(arrays.pop("meta").tobytes())
        except (ValueError, KeyError, OSError, EOFError,
                zipfile.BadZipFile) as exc:
            raise ValueError(f"unreadable payload: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError("the meta is not a JSON object")
    if key is not None and meta.get("key") != key:
        raise ValueError("the file stores another key")
    return meta, arrays


def get_or_build(name: str, key: dict, build, save, load,
                 use_cache: bool = True):
    """The object the content ``key`` names: ``load(path, stored)`` of the
    cache file ``name.format(digest(key))``, where ``stored`` is ``key`` plus
    its ``"build"``, the ``build_identity()``; ``load`` reads through
    ``read_tagged`` and so raises ValueError or OSError unless the file is
    trusted and stores that key. Else ``build()``, written over the file by
    ``save(obj, path, stored)``."""
    if not use_cache:
        return build()
    path = os.path.join(cache_dir(), name.format(digest(key)))
    key = dict(key, build=build_identity())
    try:
        return load(path, key)
    except (OSError, ValueError):
        pass  # absent or not trusted: build, outside the handler
    obj = build()
    save(obj, path, key)
    return obj
