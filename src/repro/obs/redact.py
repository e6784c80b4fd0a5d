"""The secret-safety boundary for telemetry values.

Every value attached to a span, event, or metric label passes through
:func:`redact` before it is stored, so raw byte strings — keys, key
schedules, plaintext model or audio buffers — can never reach an
exporter.  The gate is deliberately shape-preserving for *operational*
data (numbers, short labels, nesting) and destructive for anything that
could carry secret material:

* byte-likes collapse to a ``<bytes:N>`` length-only summary,
* numpy arrays collapse to a ``<ndarray:shape:dtype>`` summary,
* strings are truncated (operational labels are short; a hex-encoded
  key is not recoverable from a prefix-free summary either way, but the
  static taint rule additionally forbids piping tainted values here),
* unknown objects collapse to their type name.

The static counterpart lives in ``analysis/rules/taint.py``: the
secret-taint rule flags any secret-tainted value flowing into an
``obs.*`` sink, with ``redact``/``len`` as the sanctioned declassifiers.
Numpy is imported lazily so this module stays importable (and the
disabled path allocation-free) without it.
"""

from __future__ import annotations

import sys

__all__ = ["redact", "MAX_STRING_LEN", "MAX_ITEMS"]

# Longest string stored verbatim; anything longer keeps a prefix plus a
# length marker.  Operational labels (op names, session ids, states) are
# far shorter than this.
MAX_STRING_LEN = 120
# Most container items kept when redacting nested structures.
MAX_ITEMS = 16


def _summarize_bytes(value) -> str:
    return f"<bytes:{len(value)}>"


def redact(value, _depth: int = 0):
    """Return a telemetry-safe rendering of ``value``.

    Scalars pass through, byte-likes and arrays are replaced by
    length/shape summaries, containers are redacted recursively (bounded
    in size and depth), and anything else collapses to its type name.
    """
    # Exact-type fast path for the common labels; subclasses and every
    # other value take the full path below, with the same result.
    kind = type(value)
    if kind is int or (kind is str and len(value) <= MAX_STRING_LEN):
        return value
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, str):
        if len(value) <= MAX_STRING_LEN:
            return value
        return value[:MAX_STRING_LEN] + f"...<str:{len(value)}>"
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _summarize_bytes(value)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        return f"<ndarray:{'x'.join(str(d) for d in value.shape)}:{value.dtype}>"
    if np is not None and isinstance(value, np.generic):
        return value.item()
    if _depth >= 3:
        return f"<{type(value).__name__}>"
    if isinstance(value, dict):
        out = {}
        for i, (key, item) in enumerate(value.items()):
            if i >= MAX_ITEMS:
                out["..."] = f"<dict:{len(value)}>"
                break
            out[str(redact(key, _depth + 1))] = redact(item, _depth + 1)
        return out
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [redact(item, _depth + 1) for i, item in enumerate(value) if i < MAX_ITEMS]
        if len(value) > MAX_ITEMS:
            items.append(f"<{type(value).__name__}:{len(value)}>")
        return items
    return f"<{type(value).__name__}>"
