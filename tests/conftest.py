import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


def cli_env() -> dict:
    """The environment for a ``python -m cmkz`` child: this checkout's src
    comes first on PYTHONPATH, so the child runs installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
