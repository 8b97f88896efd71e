"""Component fault trees on vertically layered architectures.

The pipeline: parse a ``.alfred`` model file, validate it, weave the
cross-layer failure dependencies into the dependents' output failure modes,
synthesise a monolithic fault tree for a chosen top event, and extract
minimal cutsets with common-cause reduction.  A brute-force truth-table
oracle certifies every step at test time.
"""

from .analyzer import CutSet, CutSetReport, cutsets, evaluate
from .errors import (
    AnalysisError,
    CftweaveError,
    ModelError,
    OracleError,
    ParseError,
    SynthesisError,
    WeaveError,
)
from .fixtures import fixture_names, fixture_text, load_fixture
from .model import (
    AlfredDependency,
    ArchitectureModel,
    BasicEvent,
    CommonCause,
    Component,
    ComponentFaultTree,
    EventRef,
    Finding,
    Gate,
    GateKind,
    InputFailureMode,
    NodeRef,
    OutputFailureMode,
    PortConnection,
    Severity,
    ValidationReport,
    validate,
)
from .oracle import (
    TruthTable,
    equivalent,
    table_of_cutsets,
    table_of_network,
    table_of_tree,
)
from .synthesizer import (
    FaultTree,
    FTBasicEvent,
    FTExternalEvent,
    FTGate,
    TopEventRef,
    synthesize,
)
from .textfmt import export_dot, parse, serialize
from .weaver import InjectionSource, ProvenanceEntry, WovenModel, weave

__version__ = "0.1.0"

__all__ = [
    "AlfredDependency",
    "AnalysisError",
    "ArchitectureModel",
    "BasicEvent",
    "CftweaveError",
    "CommonCause",
    "Component",
    "ComponentFaultTree",
    "CutSet",
    "CutSetReport",
    "EventRef",
    "FaultTree",
    "FTBasicEvent",
    "FTExternalEvent",
    "FTGate",
    "Finding",
    "Gate",
    "GateKind",
    "InjectionSource",
    "InputFailureMode",
    "ModelError",
    "NodeRef",
    "OracleError",
    "OutputFailureMode",
    "ParseError",
    "PortConnection",
    "ProvenanceEntry",
    "Severity",
    "SynthesisError",
    "TopEventRef",
    "TruthTable",
    "ValidationReport",
    "WeaveError",
    "WovenModel",
    "cutsets",
    "equivalent",
    "evaluate",
    "export_dot",
    "fixture_names",
    "fixture_text",
    "load_fixture",
    "parse",
    "serialize",
    "synthesize",
    "table_of_cutsets",
    "table_of_network",
    "table_of_tree",
    "validate",
    "weave",
]
