"""The one store of every process-wide memo table: an exact key, a
module-constant bound, the oldest entry out first, the first stored value
kept. Readers look up without the lock, and a writer builds its value
before it takes the lock to store it.
"""

from __future__ import annotations

import threading
from typing import Dict, TypeVar

V = TypeVar("V")

#: Guards every write to every memo table.
_LOCK = threading.Lock()


def remember(table: Dict, key, value: V, bound: int) -> V:
    """Store ``value`` under ``key`` unless a value is there already;
    return the stored one. The oldest entries go first, so that a reader
    never sees more than ``bound``."""
    with _LOCK:
        if key in table:
            return table[key]
        while len(table) >= bound:
            del table[next(iter(table))]
        table[key] = value
    return value
