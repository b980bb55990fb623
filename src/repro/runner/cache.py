"""Content-addressed on-disk cache for experiment cells.

A cell's key is the SHA-256 of its experiment id, its cell function, its
canonicalised parameters, and the :mod:`repro.runner.sourcehash` digest
of the modules the experiment depends on and of the cell module.  The
value is the cell's JSON-serialisable payload.  Consequences:

* re-running a report is a cache hit unless the parameters, the cell
  bodies or the *relevant* library source changed — editing an
  unrelated module keeps every entry valid;
* there is no invalidation logic to get wrong: stale entries are simply
  never addressed again (``clean`` removes them wholesale);
* only **successful** cells are cached — failures and timeouts always
  re-execute.

Entries live under ``<cache dir>/<key[:2]>/<key>.json``; the default
directory is ``$REPRO_CACHE`` or ``.repro-cache`` in the working
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

__all__ = ["ResultCache", "default_cache_dir", "cell_key"]

#: bump to invalidate every existing entry on a format change
FORMAT_VERSION = 1

ENV_VAR = "REPRO_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / ".repro-cache"


def canonical_params(params: Dict[str, Any]) -> str:
    """Deterministic JSON encoding of a cell's parameters."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def cell_key(experiment: str, fn: str, params: Dict[str, Any], source: str) -> str:
    payload = "|".join(
        [str(FORMAT_VERSION), experiment, fn, canonical_params(params), source]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Disk-backed cell-result store, keyed by content address."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; unreadable or corrupt entries count as misses."""
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
            value = entry["value"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"format": FORMAT_VERSION, "value": value, **(meta or {})}
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            json.dump(entry, handle, sort_keys=True)
        os.replace(tmp, path)  # atomic: concurrent runs never see partial writes

    def clean(self) -> int:
        """Remove the cache directory; returns the number of entries dropped."""
        if not self.directory.is_dir():
            return 0
        count = sum(1 for _ in self.directory.glob("*/*.json"))
        shutil.rmtree(self.directory)
        return count

    def size(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))
