"""Stage traces.

Every analysis in this package decomposes into four work stages: sampling,
intervention, prediction, aggregation.  Each emitted result carries a
:class:`StageTrace` recording which stages ran, with what parameters, and
with which seeds, so a run can be audited and reproduced bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import InvalidArgumentError

SAMPLING = "sampling"
INTERVENTION = "intervention"
PREDICTION = "prediction"
AGGREGATION = "aggregation"

STAGES = (SAMPLING, INTERVENTION, PREDICTION, AGGREGATION)
_STAGE_ORDER = {name: rank for rank, name in enumerate(STAGES)}


@dataclass(frozen=True)
class StageRecord:
    """One step of a run: which stage, what happened, with what parameters.

    ``parameters`` must contain a ``"seed"`` entry whenever the step is
    randomized; deterministic steps carry no seed.
    """

    stage: str
    description: str
    parameters: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stage not in _STAGE_ORDER:
            raise InvalidArgumentError(
                f"unknown stage {self.stage!r}; expected one of {STAGES}"
            )
        object.__setattr__(self, "parameters", dict(self.parameters))

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "description": self.description,
            "parameters": dict(self.parameters),
        }


@dataclass(frozen=True)
class StageTrace:
    """Ordered list of stage records, constrained to stage order.

    Records appear grouped in pipeline order (sampling before intervention
    before prediction before aggregation); within one stage the original
    operation order is preserved.  Construction rejects out-of-order traces.
    """

    records: tuple[StageRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        ranks = [_STAGE_ORDER[r.stage] for r in self.records]
        if any(a > b for a, b in zip(ranks, ranks[1:])):
            raise InvalidArgumentError(
                "stage records must appear in sampling/intervention/"
                "prediction/aggregation order"
            )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def stages(self) -> tuple[str, ...]:
        return tuple(r.stage for r in self.records)

    def to_json_obj(self) -> list[dict[str, Any]]:
        return [r.to_json_obj() for r in self.records]


def assemble_trace(
    provenance: Iterable[StageRecord], extra: Iterable[StageRecord] = ()
) -> StageTrace:
    """Build a result trace from dataset provenance plus method records.

    Provenance and method records are stable-sorted together by stage, so
    a dataset derived through an unusual operation order (say, permute then
    sample) and a method step in an earlier stage than that provenance
    (say, a sampling draw on shifted data) still yield a valid trace.
    Within one stage the provenance comes first, each in its own order.
    """
    return StageTrace(sorted((*provenance, *extra), key=lambda r: _STAGE_ORDER[r.stage]))
