"""Standard-cell libraries: the timing/area models synthesis optimizes against.

Two libraries ship with the reproduction:

- :func:`nangate45` — modelled on the open Nangate45/FreePDK45 library the
  paper trains with (cell set, relative areas, drive-strength scaling and
  FO4-calibrated delays);
- :func:`industrial8nm` — a scaled stand-in for the paper's commercial 8nm
  library (Fig. 5): ~20x denser and ~2x faster, with its own cap/drive
  balance, so cross-library experiments exercise a genuinely different
  operating point.

Delay model: each input-pin arc contributes ``intrinsic + resistance * load``
(a linear approximation of an NLDM table at a nominal slew — slew propagation
is out of scope, a simplification of this reproduction).
"""

from repro.cells.library import Cell, CellLibrary, CELL_FUNCTIONS
from repro.cells.nangate45 import nangate45
from repro.cells.industrial8nm import industrial8nm
from repro.cells.liberty import to_liberty

#: The one name -> constructor registry. Cell libraries are code, not
#: data: only these names cross process, wire and checkpoint boundaries.
LIBRARIES = {"nangate45": nangate45, "industrial8nm": industrial8nm}
#: Libraries built so far in this process (name -> instance).
LOADED_LIBRARIES: "dict[str, CellLibrary]" = {}


def library_by_name(name: str) -> CellLibrary:
    """Build (and memoize per process) a cell library by registry name."""
    if name not in LOADED_LIBRARIES:
        if name not in LIBRARIES:
            raise KeyError(f"unknown library {name!r}")
        LOADED_LIBRARIES[name] = LIBRARIES[name]()
    return LOADED_LIBRARIES[name]


__all__ = [
    "Cell",
    "CellLibrary",
    "CELL_FUNCTIONS",
    "nangate45",
    "industrial8nm",
    "LIBRARIES",
    "LOADED_LIBRARIES",
    "library_by_name",
    "to_liberty",
]
