"""The paper's core contribution: subpage fetch schemes.

A *subpage* is a power-of-two subunit of a full page (Section 2.1).  When
a program faults on a non-resident page, a :class:`FetchScheme` decides
what to transfer and when the program resumes:

* :class:`FullPageFetch` — the GMS baseline: ship the whole 8K page.
* :class:`LazySubpageFetch` — ship only the faulted subpage; later
  subpages fault individually (equivalent to shrinking the page size).
* :class:`EagerFullPageFetch` — ship the faulted subpage, resume the
  program, and send the remainder of the page as one follow-on transfer.
* :class:`SubpagePipelining` — ship the faulted subpage, then pipeline
  further subpages in predicted access order (+1/-1 neighbors first),
  then the remainder.

A scheme's one contract is :meth:`FetchScheme.planner`: per run, it
returns a planner that turns each fault into a placement — resume time,
the subpages valid by then, later arrival times, and wire occupancy —
which the simulator executes against its residency, replacement, and
congestion state.  The built-in schemes compile each distinct plan once
into a :class:`PlanRow`, kept in the planner's :class:`PlanTable`, and
shift it to every later fault's time.
"""

from repro.core.fault import FaultKind, FaultRecord
from repro.core.plans import PlanRow, PlanTable
from repro.core.schemes import (
    EagerFullPageFetch,
    FetchScheme,
    FullPageFetch,
    LazySubpageFetch,
    SubpagePipelining,
    make_scheme,
    scheme_names,
)
from repro.core.sequencers import (
    AscendingSequencer,
    DistanceSequencer,
    NeighborSequencer,
    Sequencer,
    make_sequencer,
)

__all__ = [
    "AscendingSequencer",
    "DistanceSequencer",
    "EagerFullPageFetch",
    "FaultKind",
    "FaultRecord",
    "FetchScheme",
    "FullPageFetch",
    "LazySubpageFetch",
    "NeighborSequencer",
    "PlanRow",
    "PlanTable",
    "Sequencer",
    "SubpagePipelining",
    "make_scheme",
    "make_sequencer",
    "scheme_names",
]
