"""Atomic file writes: a reader sees the old file or the whole new one.

Manifests, tables, traces and reproducers are written through
:func:`atomic_write`, which writes a temp file in the target's
directory and ``os.replace``\\ s it over the target on success.  A run
killed or failing mid-write leaves the previous file (or none) and no
temp file behind — never a truncated one that later tooling could read
as a plausible result.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "w") -> Iterator[IO]:
    """Open a temp file next to *path* for writing (*mode* ``"w"``, as
    UTF-8 text, or ``"wb"``); it replaces *path* when the block exits
    cleanly and is removed when it raises."""
    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, mode, **({} if "b" in mode
                                else {"encoding": "utf-8"})) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
