"""Preserved reference implementations the tests compare production code against.

One module per package they specify (``prefix``, ``sta``, ``synth``,
``analytical``, ``nn``), moved verbatim out of ``src/``: they are test
fixtures, and nothing under ``src/`` imports them. ``checkpoint`` is the
layout the training runtime wrote before checkpoint format 2, kept so tests
can write format-1 snapshots. ``loop`` is the collection tick before
it overlapped synthesis with learning: act, step, push, train. Import as
``from tests.oracles import sta`` — the same root-relative convention as
``from tests.conftest import ...``.
"""
