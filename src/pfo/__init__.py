"""Page-fault-oblivious compilation and pigeonhole-adversary simulation.

The package is organized around a small C-like language: programs are
parsed, labeled for secret-sensitivity, lowered to execution trees, run
under a paging adversary, transformed into page-fault-oblivious form, and
analyzed for leakage.
"""

from .memory import (
    AccessEvent,
    AdversaryModel,
    AdversaryVariant,
    EventKind,
    Extent,
    LayoutError,
    MemoryLayout,
    PageModelError,
    PfoError,
    observe_profile,
    page_of,
)

__version__ = "0.1.0"
