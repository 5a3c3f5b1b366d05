"""Pluggable access-pattern predictors.

A :class:`Predictor` turns the fault-path access stream (recorded into
an :class:`~repro.policy.history.AccessHistory`) into a
:class:`Prediction`: the order in which a faulted page's remaining
subpages are most likely to be touched, plus a confidence in [0, 1]
that the adaptive policy maps to a prefetch depth (low confidence falls
down the ladder toward lazy fetch — see ``docs/POLICY.md``).

Three predictors ship:

* ``"static"`` — the paper's +1/-1 neighbor order at full confidence;
  reproduces :class:`~repro.core.schemes.SubpagePipelining` exactly and
  anchors the bit-identity regression tests.
* ``"stride"`` — a Leap-style majority-trend detector (Maruf &
  Chowdhury, *Effectively Prefetching Remote Memory*): the most common
  recent delta on the page wins the vote; confidence is its vote share.
* ``"direction"`` — an EWMA over delta *signs* for the paper's §4.3
  "doubled initial fetch with direction choice": predicts ascending or
  descending order and steers the doubled-fetch partner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.sequencers import AscendingSequencer, NeighborSequencer
from repro.errors import ConfigError, UnknownSchemeError
from repro.policy.history import DEFAULT_DEPTH, AccessHistory


@dataclass(frozen=True, slots=True)
class Prediction:
    """One fault's predicted follow-on plan inputs.

    ``order`` lists the page's other subpages in predicted access order
    (the faulting subpage is excluded per the sequencer contract);
    ``confidence`` in [0, 1] grades how much the predictor trusts it;
    ``direction`` is the dominant access direction (-1, 0, +1) used for
    the doubled-initial-fetch neighbor choice.
    """

    order: tuple[int, ...]
    confidence: float
    direction: int = 0


class Predictor(ABC):
    """Online access-pattern predictor over a per-page history."""

    #: Registry name; subclasses override.
    name: str = "base"

    #: True when the predictor needs every reference run, not just
    #: fault-path events; the drive loop then feeds it a hit
    #: observation per resident run.
    needs_reference_events: bool = False

    def __init__(self, history_depth: int = DEFAULT_DEPTH) -> None:
        self.history = AccessHistory(depth=history_depth)

    def reset(self) -> None:
        """Forget everything (the simulator calls this per run)."""
        self.history.clear()
        self._reset()

    def _reset(self) -> None:
        """Subclass hook for extra per-run state."""

    def record(self, page: int, subpage: int, kind: str) -> None:
        """Feed one observed access (kinds in :mod:`repro.policy.history`)."""
        self.history.record(page, subpage)

    @abstractmethod
    def predict(
        self, page: int, faulted: int, subpages_per_page: int
    ) -> Prediction:
        """Predict the follow-on order for a fault on ``page``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class StaticNeighborPredictor(Predictor):
    """The paper's fixed +1, -1, +2, -2 order at full confidence.

    History-blind by construction: it exists to reproduce
    :class:`~repro.core.schemes.SubpagePipelining` bit-for-bit through
    the adaptive machinery, anchoring the regression tests.
    """

    name = "static"

    def __init__(self, history_depth: int = DEFAULT_DEPTH) -> None:
        super().__init__(history_depth)
        self._sequencer = NeighborSequencer()
        # The order depends only on (faulted, subpages_per_page), so
        # predictions are shared across faults (Prediction is frozen).
        self._cache: dict[tuple[int, int], Prediction] = {}

    def predict(
        self, page: int, faulted: int, subpages_per_page: int
    ) -> Prediction:
        key = (faulted, subpages_per_page)
        cached = self._cache.get(key)
        if cached is None:
            order = tuple(
                self._sequencer.order(faulted, subpages_per_page)
            )
            cached = self._cache[key] = Prediction(
                order=order, confidence=1.0, direction=0
            )
        return cached


class StrideMajorityPredictor(Predictor):
    """Majority vote over the page's recent access deltas (Leap-style).

    The most common delta among the last ``window`` movements on the
    page is the predicted stride; confidence is its vote share (a lone
    delta scores 0.5, a unanimous full window scores 1.0).  The
    predicted order walks the stride to the page edge, then falls back
    to nearest-neighbor order for the rest.  Pages with no history yet
    predict the neighbor order at ``cold_confidence``.
    """

    name = "stride"

    def __init__(
        self,
        history_depth: int = DEFAULT_DEPTH,
        window: int = 6,
        cold_confidence: float = 0.5,
    ) -> None:
        super().__init__(history_depth)
        if window < 1:
            raise ConfigError("stride window must be >= 1")
        if not 0.0 <= cold_confidence <= 1.0:
            raise ConfigError("cold_confidence must be in [0, 1]")
        self.window = window
        self.cold_confidence = cold_confidence
        self._neighbor = NeighborSequencer()

    def predict(
        self, page: int, faulted: int, subpages_per_page: int
    ) -> Prediction:
        neighbor = self._neighbor.order(faulted, subpages_per_page)
        deltas = self.history.deltas(page)[-self.window:]
        deltas = [d for d in deltas if abs(d) < subpages_per_page]
        if not deltas:
            return Prediction(
                order=tuple(neighbor),
                confidence=self.cold_confidence,
                direction=0,
            )
        votes: dict[int, int] = {}
        for delta in deltas:
            votes[delta] = votes.get(delta, 0) + 1
        # Deterministic tie break: more votes first, then the shorter
        # (and then forward) stride.
        stride = min(votes, key=lambda d: (-votes[d], abs(d), -d))
        confidence = votes[stride] / max(len(deltas), 2)
        order = []
        index = faulted + stride
        while 0 <= index < subpages_per_page:
            order.append(index)
            index += stride
        taken = set(order)
        order.extend(i for i in neighbor if i not in taken)
        return Prediction(
            order=tuple(order),
            confidence=confidence,
            direction=1 if stride > 0 else -1,
        )


class DirectionEwmaPredictor(Predictor):
    """EWMA over access-direction signs (§4.3 direction choice).

    Each movement on a page nudges a per-page trend toward +1
    (ascending) or -1 (descending); ``|trend|`` is the confidence that
    the program keeps scanning that way.  Prediction is the ascending
    (or descending) order from the fault, matching the paper's "choose
    the preceding or following neighbor" variant but learned online
    rather than guessed from the faulted word's offset.
    """

    name = "direction"

    def __init__(
        self,
        history_depth: int = DEFAULT_DEPTH,
        alpha: float = 0.25,
        direction_threshold: float = 0.2,
    ) -> None:
        super().__init__(history_depth)
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.0 <= direction_threshold <= 1.0:
            raise ConfigError("direction_threshold must be in [0, 1]")
        self.alpha = alpha
        self.direction_threshold = direction_threshold
        self._trend: dict[int, float] = {}

    def _reset(self) -> None:
        self._trend.clear()

    def record(self, page: int, subpage: int, kind: str) -> None:
        previous = self.history.last(page)
        super().record(page, subpage, kind)
        if previous is None or previous == subpage:
            return
        sign = 1.0 if subpage > previous else -1.0
        trend = self._trend.get(page, 0.0)
        self._trend[page] = (1.0 - self.alpha) * trend + self.alpha * sign

    def predict(
        self, page: int, faulted: int, subpages_per_page: int
    ) -> Prediction:
        trend = self._trend.get(page, 0.0)
        after = list(range(faulted + 1, subpages_per_page))
        before = list(range(faulted - 1, -1, -1))
        order = after + before if trend >= 0 else before + after
        direction = 0
        if abs(trend) >= self.direction_threshold:
            direction = 1 if trend > 0 else -1
        return Prediction(
            order=tuple(order),
            confidence=min(1.0, abs(trend)),
            direction=direction,
        )


_PREDICTORS: dict[str, type[Predictor]] = {
    StaticNeighborPredictor.name: StaticNeighborPredictor,
    StrideMajorityPredictor.name: StrideMajorityPredictor,
    DirectionEwmaPredictor.name: DirectionEwmaPredictor,
}


def predictor_names() -> tuple[str, ...]:
    return tuple(sorted(_PREDICTORS))


def make_predictor(spec: str | Predictor, **kwargs) -> Predictor:
    """Build a predictor from a registry name or pass an instance through."""
    if isinstance(spec, Predictor):
        if kwargs:
            raise ConfigError(
                "cannot pass constructor arguments with a predictor instance"
            )
        return spec
    try:
        cls = _PREDICTORS[spec]
    except KeyError:
        known = ", ".join(predictor_names())
        raise UnknownSchemeError(
            f"unknown predictor {spec!r}; known predictors: {known}"
        ) from None
    return cls(**kwargs)


# AscendingSequencer is imported for its documented equivalence to the
# direction predictor's forward order; keep the reference alive for
# introspection/doc tooling.
_ = AscendingSequencer
