"""Setup shim for environments without the ``wheel`` package.

``pip install -e .`` on offline machines with older setuptools falls back to
the legacy ``setup.py develop`` path, which this file enables. The project
declares no packaging metadata, here or in pyproject.toml: it runs from the
repo root with ``PYTHONPATH=src``, and numpy is its one runtime dependency.
"""

from setuptools import setup

setup()
