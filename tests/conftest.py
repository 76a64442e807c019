"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

import qifsim


@pytest.fixture
def cli_env():
    """Environment for a child ``python -m qifsim.cli`` process.

    The child imports the same ``qifsim`` as this test session, whatever
    its working directory: the package's parent directory is prepended to
    ``PYTHONPATH`` as an absolute path.
    """
    env = dict(os.environ)
    package_root = str(Path(qifsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env
