"""PrefixRL reproduction: deep-RL optimization of parallel prefix circuits.

Reproduces Roy et al., *PrefixRL: Optimization of Parallel Prefix Circuits
using Deep Reinforcement Learning* (DAC 2021) end to end in pure Python:
the prefix-graph MDP, a numpy deep-learning stack, a scalarized Double-DQN
agent, and the full synthesis substrate (cell libraries, netlist generation,
static timing, a timing-driven optimizer) the paper trains against.

Quickstart::

    from repro import sklansky, evaluate_analytical
    g = sklansky(32)
    print(evaluate_analytical(g))          # area/delay under the SA model
    g2 = g.add_node(17, 4)                 # take an environment action

See README.md for the full tour.
"""

import ctypes
import os

import numpy as np

from repro.prefix import (
    PrefixGraph,
    IllegalActionError,
    ripple_carry,
    sklansky,
    kogge_stone,
    brent_kung,
    han_carlson,
    ladner_fischer,
    REGULAR_STRUCTURES,
    render_grid,
    render_network,
)
from repro.analytical import AnalyticalMetrics, evaluate_analytical

__version__ = "1.0.0"


def _blas_on_the_calling_thread() -> None:
    """Default numpy's OpenBLAS to one thread, unless ``OPENBLAS_NUM_THREADS`` says otherwise.

    The program's parallelism is processes (the synthesis farm pool), each
    computing on its own thread. Left to itself OpenBLAS splits every Q-network GEMM
    over all cores and its workers spin between calls, so a pass takes as long
    as the slower core and a second CPU burns through the Python in between.
    On the 2-vCPU reference host that bought ``collect_vec8_n32`` 20% (nothing
    at n=16) and made it twice as spread from run to run: quartile distance
    10-18% of the median, 6-8% on one thread. A numpy built on another BLAS
    is left alone.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    core = getattr(np, "_core", None) or np.core
    # The extension module's handle resolves symbols of the OpenBLAS it was linked against.
    blas = ctypes.CDLL(core._multiarray_umath.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            setter = getattr(blas, f"{prefix}_set_num_threads{suffix}", None)
            if setter is not None:
                setter(1)
                return


_blas_on_the_calling_thread()

__all__ = [
    "PrefixGraph",
    "IllegalActionError",
    "ripple_carry",
    "sklansky",
    "kogge_stone",
    "brent_kung",
    "han_carlson",
    "ladner_fischer",
    "REGULAR_STRUCTURES",
    "render_grid",
    "render_network",
    "AnalyticalMetrics",
    "evaluate_analytical",
    "__version__",
]
