"""On-disk cache for enumerated mode tables.

Single JSON file, schema-versioned.  A version mismatch or any parse
problem discards the whole file and rebuilds from scratch -- a cache is
never read partially.  Writes go through a temp file + os.replace so a
crashed run cannot leave a truncated cache behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .geometry import DomainSpec
from .modes import ModeTable, enumerate_modes, table_from_dict

# 2: disk zeros changed in their last bits and the Bessel zero table left
# the file (it is rebuilt with the mode table it serves)
# 3: disk norm_const changed in their last bits (J_m'(j_{m,k}) of all modes
# now comes from one Miller sweep, started above the largest zero)
SCHEMA_VERSION = 3
DEFAULT_CACHE_NAME = "observalab_cache.json"

__all__ = ["SCHEMA_VERSION", "ModeCache", "resolve_cache_path", "cached_modes"]


def resolve_cache_path(config_path: str | None = None) -> Path:
    """OBSERVALAB_CACHE env var wins; then the config; then the default."""
    env = os.environ.get("OBSERVALAB_CACHE")
    if env:
        return Path(env)
    if config_path:
        return Path(config_path)
    return Path(DEFAULT_CACHE_NAME)


def _table_key(domain: DomainSpec, N: int) -> str:
    params = ",".join("%.17g" % p for p in domain.params)
    return f"{domain.kind}({params}):N={N}"


class ModeCache:
    """In-memory view of the cache file; save() persists it atomically."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._tables: dict[str, dict] = {}

    @classmethod
    def load(cls, path: str | Path) -> "ModeCache":
        cache = cls(path)
        try:
            data = json.loads(Path(path).read_text())
            if data.get("schema_version") != SCHEMA_VERSION:
                return cache          # stale schema: rebuild everything
            cache._tables = dict(data.get("tables", {}))
        except (OSError, ValueError):
            return cls(path)          # unreadable or corrupt: start fresh
        return cache

    # -- mode tables -----------------------------------------------------

    def get_table(self, domain: DomainSpec, N: int) -> ModeTable | None:
        data = self._tables.get(_table_key(domain, N))
        if data is None:
            return None
        try:
            return table_from_dict(domain, data)
        except (KeyError, TypeError, ValueError):
            return None               # malformed entry behaves like a miss

    def put_table(self, table: ModeTable) -> None:
        self._tables[_table_key(table.domain, table.N)] = table.to_dict()

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tables": self._tables,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


def cached_modes(domain: DomainSpec, N: int,
                 cache: ModeCache | None = None) -> ModeTable:
    """Fetch a mode table from the cache or enumerate and store it."""
    if cache is not None:
        hit = cache.get_table(domain, N)
        if hit is not None:
            return hit
    table = enumerate_modes(domain, N)
    if cache is not None:
        cache.put_table(table)
    return table
