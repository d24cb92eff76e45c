"""Atomic file replacement: readers never observe a partial file."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) via a sibling ``.tmp`` file
    and ``os.replace``, so a crash mid-write leaves the old file intact."""
    path = Path(path)
    temporary = path.with_suffix(path.suffix + ".tmp")
    temporary.write_text(text, encoding="utf-8")
    os.replace(temporary, path)
