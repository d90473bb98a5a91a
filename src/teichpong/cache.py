"""The one memo for derived constants: in process always, file-backed when enabled.

``enable`` loads a local JSON file into the memo, ``flush`` writes new
values back and ``disable`` forgets the file and every value; the CLI
enables it unless --no-cache is given, so imports stay side-effect free.
Values must be JSON-serializable and are keyed by the derivation's name,
its version and its full parameters, so a hit is bit-for-bit the same as
recomputation.  A derivation whose result changes takes a new version, so
values written by older code are never served.
"""

from __future__ import annotations

import json
import os

_path: str | None = None
_store: dict = {}
_dirty = False

DEFAULT_FILENAME = ".teichpong-constants.json"


def enable(path: str = DEFAULT_FILENAME):
    global _path, _store, _dirty
    _path = path
    _dirty = False
    _store = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                _store = json.load(fh)
        except (OSError, ValueError):
            _store = {}


def disable():
    global _path, _store, _dirty
    _path = None
    _store = {}
    _dirty = False


def memo(key: str, compute):
    global _dirty
    if key not in _store:
        _store[key] = compute()
        _dirty = True
    return _store[key]


def flush():
    global _dirty
    if _path is not None and _dirty:
        # write beside the file and rename, so a reader never sees half a file
        tmp = f"{_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_store, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, _path)
        _dirty = False
