"""ceforge: exact-arithmetic finite-injury construction engines and audits."""

from .bitcore import Dyadic
from .machines import (
    Exhausted,
    FreeBlockSet,
    MachineEntry,
    PrefixFreeMachine,
    WeightOverflow,
)
from .approx import (
    BlockOverflow,
    CERealApprox,
    GenParams,
    Scenario,
    ScenarioError,
    encode_real,
    gen_scenario,
)
from .engine import DualEngine, LemmaViolation, SingleEngine
from .audit import (
    audit_trace,
    report_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOverflow",
    "CERealApprox",
    "DualEngine",
    "Dyadic",
    "Exhausted",
    "FreeBlockSet",
    "GenParams",
    "LemmaViolation",
    "MachineEntry",
    "PrefixFreeMachine",
    "Scenario",
    "ScenarioError",
    "SingleEngine",
    "WeightOverflow",
    "audit_trace",
    "encode_real",
    "gen_scenario",
    "report_to_json",
    "trace_from_jsonl",
    "trace_to_jsonl",
]
