"""Preserved reference implementations the tests compare production code against.

One module per package they specify (``prefix``, ``sta``, ``synth``,
``analytical``, ``nn``), moved verbatim out of ``src/``: they are test
fixtures, and nothing under ``src/`` imports them. Import as
``from tests.oracles import sta`` — the same root-relative convention as
``from tests.conftest import ...``.
"""
