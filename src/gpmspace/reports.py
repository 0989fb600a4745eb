"""Check verdicts, witnesses and canonical serialization helpers.

Every checker in this package is falsification-only: a "pass" verdict means
no counterexample was found at the declared grid/sample resolution, never a
proof.  A "fail" verdict always carries at least one witness, and
re-evaluating the violated inequality on that witness reproduces the failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_MAX_SERIALIZED_WITNESSES = 8


@dataclass(frozen=True)
class Witness:
    """Concrete tuple violating (or exhibiting) a property.

    ``points`` holds the carrier points involved, ``values`` the named scalars
    (parameters, radii, both sides of the violated inequality).
    """

    points: tuple = ()
    values: dict = field(default_factory=dict)
    detail: str = ""

    def to_jsonable(self):
        return {
            "points": [p for p in self.points],
            "values": self.values,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    name: str
    verdict: str
    witness: Witness | None = None
    samples_tested: int = 0
    note: str = ""
    witnesses: tuple = ()
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.witnesses and self.witness is None:
            self.witness = self.witnesses[0]

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_jsonable(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "note": self.note,
            "samples_tested": self.samples_tested,
            "witness": self.witness.to_jsonable() if self.witness else None,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_jsonable() for w in self.witnesses[:_MAX_SERIALIZED_WITNESSES]],
            "data": self.data,
        }


def canonical(obj):
    """Normalize a value tree for byte-stable JSON output.

    Floats are rounded to 12 significant digits, infinities become the
    strings "inf"/"-inf" (JSON has no representation for them), numpy
    scalars are unwrapped, tuples become lists.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return canonical(obj.item())
    if hasattr(obj, "to_jsonable"):
        return canonical(obj.to_jsonable())
    return str(obj)
