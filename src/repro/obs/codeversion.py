"""Code-version stamping for manifests.

Every ``repro.*/1`` manifest records the **code version** that
produced it, so a saved manifest (a pinned ``BENCH_*.json``, a CI
artifact) says which revision of the simulator made it.

Resolution order:

1. ``REPRO_CODE_VERSION`` in the environment — an explicit override
   for CI jobs, fixtures, and tests that need a pinned, deterministic
   stamp;
2. ``git rev-parse --short HEAD`` run against the directory holding
   this source tree, suffixed ``+dirty`` when ``git status
   --porcelain`` reports uncommitted changes;
3. ``pkg-<version>`` from :data:`repro.__version__` when the package
   runs outside a git checkout (installed wheel, tarball).

The answer is cached per process: one subprocess pair at most, and
every report built in the same process (including every engine worker)
carries the same stamp.
"""

from __future__ import annotations

import functools
import os
import subprocess

__all__ = ["code_version"]

#: Environment variable that pins the stamp, bypassing git.
CODE_VERSION_ENV = "REPRO_CODE_VERSION"


def _git(args: list[str], cwd: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


@functools.lru_cache(maxsize=None)
def _resolved_code_version() -> str:
    source_dir = os.path.dirname(os.path.abspath(__file__))
    sha = _git(["rev-parse", "--short", "HEAD"], source_dir)
    if sha and sha.strip():
        stamp = sha.strip()
        status = _git(["status", "--porcelain"], source_dir)
        if status is None or status.strip():
            stamp += "+dirty"
        return stamp
    from .. import __version__
    return f"pkg-{__version__}"


def code_version() -> str:
    """The stamp recorded in every manifest (see the module docstring
    for the resolution order).  Never raises and never returns an
    empty string."""
    override = os.environ.get(CODE_VERSION_ENV, "").strip()
    if override:
        return override
    return _resolved_code_version()
