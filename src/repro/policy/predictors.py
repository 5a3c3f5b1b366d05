"""Pluggable access-pattern predictors.

A :class:`Predictor` turns the fault-path access stream (recorded into
an :class:`~repro.policy.history.AccessHistory`) into a
:class:`Prediction`: the order in which a faulted page's remaining
subpages are most likely to be touched, plus a confidence in [0, 1]
that the adaptive policy maps to a prefetch depth (low confidence falls
down the ladder toward lazy fetch — see ``docs/POLICY.md``).

Two predictors ship:

* ``"static"`` — the paper's +1/-1 neighbor order at full confidence;
  reproduces :class:`~repro.core.schemes.SubpagePipelining` exactly and
  anchors the bit-identity regression tests.
* ``"stride"`` — a Leap-style majority-trend detector (Maruf &
  Chowdhury, *Effectively Prefetching Remote Memory*): the most common
  recent delta on the page wins the vote; confidence is its vote share.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.sequencers import NeighborSequencer
from repro.errors import UnknownSchemeError
from repro.policy.history import AccessHistory


@dataclass(frozen=True, slots=True)
class Prediction:
    """One fault's predicted follow-on plan inputs.

    ``order`` lists the page's other subpages in predicted access order
    (the faulting subpage is excluded per the sequencer contract);
    ``confidence`` in [0, 1] grades how much the predictor trusts it.
    """

    order: tuple[int, ...]
    confidence: float


class Predictor(ABC):
    """Online access-pattern predictor over a per-page history."""

    #: Registry name; subclasses override.
    name: str = "base"

    def __init__(self) -> None:
        self.history = AccessHistory()
        #: Feed one observed access ``(page, subpage, kind)``, kinds in
        #: :mod:`repro.policy.history`: the policy's observe() reaches
        #: the ring in one call.
        self.record = self.history.record

    def reset(self) -> None:
        """Forget everything (the simulator calls this per run)."""
        self.history.clear()

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

    def __init__(self) -> None:
        super().__init__()
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
                order=order, confidence=1.0
            )
        return cached


class StrideMajorityPredictor(Predictor):
    """Majority vote over the page's recent access deltas (Leap-style).

    The most common delta among the last :attr:`WINDOW` movements on
    the page is the predicted stride; confidence is its vote share (a
    lone delta scores 0.5, a unanimous full window scores 1.0).  The
    predicted order walks the stride to the page edge, then falls back
    to nearest-neighbor order for the rest.  Pages with no history yet
    predict the neighbor order at :attr:`COLD_CONFIDENCE`.
    """

    name = "stride"

    #: Movements that vote on the stride.
    WINDOW = 6
    #: Confidence of a prediction for a page with no movement yet.
    COLD_CONFIDENCE = 0.5

    def __init__(self) -> None:
        super().__init__()
        self._neighbor = NeighborSequencer()

    def predict(
        self, page: int, faulted: int, subpages_per_page: int
    ) -> Prediction:
        neighbor = self._neighbor.order(faulted, subpages_per_page)
        deltas = self.history.deltas(page)[-self.WINDOW:]
        deltas = [d for d in deltas if abs(d) < subpages_per_page]
        if not deltas:
            return Prediction(
                order=tuple(neighbor), confidence=self.COLD_CONFIDENCE
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
        return Prediction(order=tuple(order), confidence=confidence)


_PREDICTORS: dict[str, type[Predictor]] = {
    StaticNeighborPredictor.name: StaticNeighborPredictor,
    StrideMajorityPredictor.name: StrideMajorityPredictor,
}


def predictor_names() -> tuple[str, ...]:
    return tuple(sorted(_PREDICTORS))


def make_predictor(spec: str | Predictor) -> Predictor:
    """Build a predictor from a registry name or pass an instance through."""
    if isinstance(spec, Predictor):
        return spec
    try:
        cls = _PREDICTORS[spec]
    except KeyError:
        known = ", ".join(predictor_names())
        raise UnknownSchemeError(
            f"unknown predictor {spec!r}; known predictors: {known}"
        ) from None
    return cls()
