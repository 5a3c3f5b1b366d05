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
    register_scheme,
)
from repro.errors import ConfigError
from repro.net.latency import LatencyModel
from repro.policy.history import DEFAULT_DEPTH, KIND_FAULT
from repro.policy.predictors import (
    Predictor,
    StaticNeighborPredictor,
    make_predictor,
)

#: Observation feeds: ``"faults"`` sees page faults and
#: incomplete-page touches; ``"events"`` additionally sees every
#: reference run's first touch (a hit observation per resident run).
FEEDS = ("faults", "events")


class AdaptivePolicy:
    """Per-run controller gluing a predictor to the fetch pipeline.

    Owned by an :class:`AdaptiveScheme`; the simulator calls
    :meth:`begin_run` before each run and :meth:`observe` from the fault
    path, and the scheme routes every fault through :meth:`row`.
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

    @property
    def needs_reference_events(self) -> bool:
        """True when this policy demands the per-event ``"events"`` feed
        (the drive loop then reports every resident run as a hit)."""
        return (
            self.scheme.feed == "events"
            or self.predictor.needs_reference_events
        )

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
                prediction.direction,
            )
        self._faults += 1
        self._retire(page)
        scheme = self.scheme

        if (
            scheme.switch_schemes
            and prediction.confidence < scheme.min_confidence
        ):
            self._lazy_fallbacks += 1
            return scheme.lazy.row(lazy_table, faulted)

        depth = self._depth_for(prediction.confidence)
        row = self._inner_row(
            table,
            faulted,
            block,
            prediction.order,
            depth,
            prediction.direction,
        )

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


@register_scheme
class AdaptiveScheme(FetchScheme):
    """Meta-scheme: predictor-driven pipelining with confidence scaling.

    Parameters
    ----------
    predictor:
        Registry name (``"static"``, ``"stride"``, ``"direction"``) or a
        :class:`~repro.policy.predictors.Predictor` instance.
    predictor_kwargs:
        Constructor arguments for a by-name predictor.
    pipeline_count, segment_subpages, interrupt_ms, double_initial:
        Forwarded to the wrapped :class:`SubpagePipelining`.
    max_depth:
        Pipelined-message count at full confidence; defaults to
        ``pipeline_count`` (no deepening).
    min_confidence, full_confidence:
        The fallback ladder's knees: below ``min`` the fault gets no
        pipelined messages (or lazy fetch with ``switch_schemes``); at
        ``full`` and above it gets the whole ``max_depth``.
    switch_schemes:
        Service very-low-confidence faults with lazy subpage fetch
        instead of the eager remainder.
    feed:
        ``"faults"`` (default) or ``"events"`` (adds per-reference-run
        hit observations).
    history_depth:
        Ring depth for the predictor's per-page access history.
    """

    name = "adaptive"

    def __init__(
        self,
        predictor: str | Predictor = "static",
        predictor_kwargs: dict | None = None,
        pipeline_count: int = 2,
        segment_subpages: int = 1,
        interrupt_ms: float = 0.0,
        double_initial: bool = False,
        max_depth: int | None = None,
        min_confidence: float = 0.25,
        full_confidence: float = 0.75,
        switch_schemes: bool = False,
        feed: str = "faults",
        history_depth: int = DEFAULT_DEPTH,
    ) -> None:
        if feed not in FEEDS:
            raise ConfigError(
                f"feed must be one of {FEEDS}, not {feed!r}"
            )
        if not 0.0 <= min_confidence <= full_confidence <= 1.0:
            raise ConfigError(
                "need 0 <= min_confidence <= full_confidence <= 1"
            )
        if max_depth is not None and max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if isinstance(predictor, Predictor):
            self.predictor = make_predictor(predictor)
        else:
            self.predictor = make_predictor(
                predictor,
                history_depth=history_depth,
                **(predictor_kwargs or {}),
            )
        self.inner = SubpagePipelining(
            pipeline_count=pipeline_count,
            segment_subpages=segment_subpages,
            interrupt_ms=interrupt_ms,
            double_initial=double_initial,
        )
        self.lazy = LazySubpageFetch()
        self.max_depth = max_depth
        self.min_confidence = min_confidence
        self.full_confidence = full_confidence
        self.switch_schemes = switch_schemes
        self.feed = feed
        # Transparent mode: static predictor, no switching, no deepening
        # — the layer is provably a no-op, so report the inner scheme's
        # identity and let results compare equal to plain pipelining.
        self.transparent = (
            isinstance(self.predictor, StaticNeighborPredictor)
            and not switch_schemes
            and (max_depth is None or max_depth == pipeline_count)
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
        if confidence >= self.full_confidence:
            return cap
        if confidence < self.min_confidence:
            return 0
        span = self.full_confidence - self.min_confidence
        if span <= 0.0:
            return cap
        fraction = (confidence - self.min_confidence) / span
        return max(1, min(cap, 1 + int(fraction * (cap - 1))))

    def planner(
        self, latency: LatencyModel, subpage_bytes: int, page_bytes: int
    ) -> Planner:
        return self.controller.planner(latency, subpage_bytes, page_bytes)

    def label(self, subpage_bytes: int, page_bytes: int) -> str:
        if self.transparent:
            return self.inner.label(subpage_bytes, page_bytes)
        return f"ad_{subpage_bytes}"
