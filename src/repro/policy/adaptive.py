"""The adaptive fetch-policy layer and its ``"adaptive"`` meta-scheme.

:class:`AdaptiveScheme` wraps the paper's pipelined scheme with an
online predictor (:mod:`repro.policy.predictors`) and per-fault
decision logic:

* the pipelining follow-on sequence is reordered into the predicted
  access order,
* the number of individually pipelined messages scales with the
  predictor's confidence (the *fallback ladder*: full depth at high
  confidence down to the plain eager remainder at low confidence),
* optionally (``switch_schemes=True``) a very-low-confidence fault is
  serviced by lazy subpage fetch instead — no speculative bytes at all.

With the ``"static"`` predictor and no scheme switching the layer is
*transparent*: every fault reproduces
:class:`~repro.core.schemes.SubpagePipelining` bit for bit, and the
scheme reports the pipelined scheme's name/label so results compare
equal dataclass-to-dataclass.  That equivalence is the subsystem's
regression anchor (see ``tests/sim/test_adaptive_equivalence.py``).
"""

from __future__ import annotations

import functools

from repro.core.plans import PlanRow, PlanTable, Planner, row_planner
from repro.core.schemes import (
    FetchScheme,
    LazySubpageFetch,
    SubpagePipelining,
    fullpage_row,
)
from repro.errors import ConfigError
from repro.net.latency import LatencyModel
from repro.policy.history import KIND_FAULT
from repro.policy.predictors import (
    Predictor,
    StaticNeighborPredictor,
    make_predictor,
)


class AdaptivePolicy:
    """Per-run controller gluing a predictor to the fetch pipeline.

    Owned by an :class:`AdaptiveScheme`; the simulator calls
    :meth:`begin_run` before each run and :meth:`observe` at every page
    fault and incomplete-page touch, and the scheme routes every fault
    through :meth:`row`.
    Also keeps the prediction scoreboard: each fault's predicted-
    to-arrive set is scored against the subpages actually touched before
    the page is next predicted for (or the run ends).
    """

    def __init__(self, scheme: AdaptiveScheme) -> None:
        self.scheme = scheme
        self.predictor = scheme.predictor
        # Bound once: observe() and row() run on every fault-path
        # event, so the attribute chase must not repeat per call.
        self._record = self.predictor.record
        self._predict = self.predictor.predict
        self._inner_row = scheme.inner.row
        self._depth_for = scheme.depth_for
        # In transparent mode the scoreboard is never surfaced
        # (finish() returns None), so observation reduces to history
        # recording and planning to the pure delegation.
        self._score = not scheme.transparent
        if not self._score:
            self.observe = self._record  # nothing to score
        # page -> (predicted set, initially-shipped set, observed set)
        self._live: dict[int, tuple[set[int], set[int], set[int]]]
        self._live = {}
        self._subpage_bytes = 0
        self._zero_stats()

    def _zero_stats(self) -> None:
        self._faults = 0
        self._predictions = 0
        self._lazy_fallbacks = 0
        self._depth_sum = 0
        self._pred_hits = 0
        self._pred_misses = 0
        self._wasted_bytes = 0

    def begin_run(self, subpage_bytes: int) -> None:
        """Reset all per-run state before a simulation run."""
        self.predictor.reset()
        self._live.clear()
        self._subpage_bytes = subpage_bytes
        self._zero_stats()

    def observe(self, page: int, subpage: int, kind: str) -> None:
        """Score one observed access and feed it to the predictor."""
        if self._score and kind != KIND_FAULT:
            live = self._live.get(page)
            if live is not None:
                predicted, initial, observed = live
                if subpage not in observed and subpage not in initial:
                    observed.add(subpage)
                    if subpage in predicted:
                        self._pred_hits += 1
                    else:
                        self._pred_misses += 1
        self._record(page, subpage, kind)

    def planner(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> Planner:
        """Per-run fault planner (see :meth:`FetchScheme.planner`).

        Builds the wrapped pipelined scheme's table and the lazy
        fallback's table once, for the whole run.
        """
        table = PlanTable(latency, subpage_bytes, page_bytes)
        lazy_table = PlanTable(latency, subpage_bytes, page_bytes)
        return row_planner(
            functools.partial(self.row, table, lazy_table), by_subpage=False
        )

    def row(
        self,
        table: PlanTable,
        lazy_table: PlanTable,
        page: int,
        faulted: int,
        block: int,
    ) -> PlanRow:
        """The compiled plan for this fault's prediction.

        Predictions index the wrapped pipelined scheme's rows in
        ``table``, so a repeated prediction (every one, under the static
        predictor) reuses its row instead of planning again; a lazy
        fallback takes its row from ``lazy_table``.
        """
        if table.whole_page:
            return fullpage_row(table)
        prediction = self._predict(page, faulted, table.subpages_per_page)
        if not self._score:
            return self._inner_row(
                table,
                faulted,
                block,
                prediction.order,
                self._depth_for(prediction.confidence),
            )
        self._faults += 1
        self._retire(page)
        scheme = self.scheme

        if (
            scheme.switch_schemes
            and prediction.confidence < scheme.MIN_CONFIDENCE
        ):
            self._lazy_fallbacks += 1
            return scheme.lazy.row(lazy_table, faulted)

        depth = self._depth_for(prediction.confidence)
        row = self._inner_row(table, faulted, block, prediction.order, depth)

        initial = set(row.initial)
        budget = depth * scheme.inner.segment_subpages
        speculated: set[int] = set()
        for index in prediction.order:
            if len(speculated) >= budget:
                break
            if index not in initial:
                speculated.add(index)
        self._live[page] = (speculated, initial, set())
        self._predictions += 1
        self._depth_sum += depth
        return row

    def _retire(self, page: int) -> None:
        """Close out a page's live prediction, charging unused bytes."""
        live = self._live.pop(page, None)
        if live is None:
            return
        predicted, _initial, observed = live
        unused = sum(1 for index in predicted if index not in observed)
        self._wasted_bytes += unused * self._subpage_bytes

    def finish(self) -> dict[str, float] | None:
        """Retire remaining predictions and return the run's stats.

        Returns ``None`` in transparent mode so the result dataclass
        stays equal to the plain pipelined scheme's.
        """
        for page in list(self._live):
            self._retire(page)
        if self.scheme.transparent:
            return None
        faults = float(self._faults)
        scored = self._pred_hits + self._pred_misses
        return {
            "faults": faults,
            "predictions": float(self._predictions),
            "lazy_fallbacks": float(self._lazy_fallbacks),
            "depth_sum": float(self._depth_sum),
            "pred_hits": float(self._pred_hits),
            "pred_misses": float(self._pred_misses),
            "wasted_prefetch_bytes": float(self._wasted_bytes),
            "coverage": self._predictions / faults if faults else 0.0,
            "pred_hit_rate": (
                self._pred_hits / scored if scored else 0.0
            ),
        }


class AdaptiveScheme(FetchScheme):
    """Meta-scheme: predictor-driven pipelining with confidence scaling.

    It wraps the paper's default :class:`SubpagePipelining` (two
    pipelined messages of one subpage each).

    Parameters
    ----------
    predictor:
        Registry name (``"static"`` or ``"stride"``) or a
        :class:`~repro.policy.predictors.Predictor` instance.
    max_depth:
        Pipelined-message count at full confidence; defaults to the
        wrapped scheme's ``pipeline_count`` (no deepening).
    switch_schemes:
        Service very-low-confidence faults with lazy subpage fetch
        instead of the eager remainder.
    """

    name = "adaptive"

    #: The fallback ladder's knees: below ``MIN_CONFIDENCE`` a fault
    #: gets no pipelined messages (or lazy fetch with
    #: ``switch_schemes``); at ``FULL_CONFIDENCE`` and above it gets the
    #: whole ``max_depth``.
    MIN_CONFIDENCE = 0.25
    FULL_CONFIDENCE = 0.75

    def __init__(
        self,
        predictor: str | Predictor = "static",
        max_depth: int | None = None,
        switch_schemes: bool = False,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        self.predictor = make_predictor(predictor)
        self.inner = SubpagePipelining()
        self.lazy = LazySubpageFetch()
        self.max_depth = max_depth
        self.switch_schemes = switch_schemes
        # Transparent mode: static predictor, no switching, no deepening
        # — the layer is provably a no-op, so report the inner scheme's
        # identity and let results compare equal to plain pipelining.
        self.transparent = (
            isinstance(self.predictor, StaticNeighborPredictor)
            and not switch_schemes
            and max_depth in (None, self.inner.pipeline_count)
        )
        if self.transparent:
            self.name = self.inner.name
        self.controller = AdaptivePolicy(self)

    def depth_for(self, confidence: float) -> int:
        """Map a confidence in [0, 1] to a pipelined-message count."""
        cap = (
            self.max_depth
            if self.max_depth is not None
            else self.inner.pipeline_count
        )
        if confidence >= self.FULL_CONFIDENCE:
            return cap
        if confidence < self.MIN_CONFIDENCE:
            return 0
        fraction = (confidence - self.MIN_CONFIDENCE) / (
            self.FULL_CONFIDENCE - self.MIN_CONFIDENCE
        )
        return max(1, min(cap, 1 + int(fraction * (cap - 1))))

    def planner(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> Planner:
        return self.controller.planner(latency, subpage_bytes, page_bytes)

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        if self.transparent:
            return self.inner.label(subpage_bytes, page_bytes)
        return f"ad_{subpage_bytes}"
