"""The canonical-JSON digest behind every cache key and content hash.

A leaf module (it imports nothing else from :mod:`repro`), so any layer
may hash a JSON-native payload without importing :mod:`repro.exp`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_digest"]


def canonical_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON form."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
