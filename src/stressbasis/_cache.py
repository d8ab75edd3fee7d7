"""The cache of eigenbases and FEM references: its directory, key hash,
file layout and get-or-build rule.

A cache file is a tag line (say ``SBBASIS 2``), then an npz payload whose
member ``meta`` holds the sorted JSON of the file's meta, so the meta sits
under a zip CRC-32 like every array.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile

import numpy as np


def cache_dir() -> str:
    return os.environ.get("SB_CACHE_DIR") or \
        os.path.join(os.path.expanduser("~"), ".cache", "stressbasis")


def digest(payload: dict) -> str:
    """16 hex digits of the SHA-256 of the sorted JSON of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: str, data: bytes):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-sb-")
    try:
        with os.fdopen(fd, "wb") as f:
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
    atomic_write_bytes(path, tag.encode() + b"\n" + payload.getvalue())


def read_tagged(path: str, tag: str, key: dict | None = None):
    """(meta, arrays) of a ``tag`` file; ValueError unless it is trusted: the
    tag matches, every npz member passes its CRC-32 (checked up front, as
    ``np.load`` may stop short of a member's end) and, given ``key``, the
    meta's ``key`` equals it."""
    with open(path, "rb") as f:
        data = f.read()
    head = tag.encode() + b"\n"
    if not data.startswith(head):
        raise ValueError(f"no {tag!r} tag line")
    try:
        payload = io.BytesIO(data[len(head):])
        with zipfile.ZipFile(payload) as zf:
            if zf.testzip() is not None:
                raise ValueError("bad CRC-32 in the payload")
        payload.seek(0)
        with np.load(payload) as npz:
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
    """The object ``key`` names: ``load(path, key)`` of the cache file
    ``name.format(digest(key))``, which reads through ``read_tagged`` and so
    raises ValueError or OSError unless the file is trusted; else
    ``build()``, written over the file by ``save(obj, path, key)``."""
    if not use_cache:
        return build()
    path = os.path.join(cache_dir(), name.format(digest(key)))
    try:
        return load(path, key)
    except (OSError, ValueError):
        pass  # absent or not trusted: build, outside the handler
    obj = build()
    save(obj, path, key)
    return obj
