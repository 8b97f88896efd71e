"""Component fault trees on vertically layered architectures.

The pipeline: parse a ``.alfred`` model file, validate it, weave the
cross-layer failure dependencies into the dependents' output failure modes,
synthesise a monolithic fault tree for a chosen top event, and extract
minimal cutsets with common-cause reduction.  A brute-force truth-table
oracle certifies every step at test time.

The package namespace is lazy (PEP 562): ``import cftweave`` loads no
stage, and the first read of a public name imports the module that defines
it, so a process loads only the stages it uses.  The stage modules
(``cftweave.analyzer``, ...) are attributes of the package in the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the module that defines it
_MODULE_OF = {
    "AlfredDependency": "model",
    "AnalysisError": "errors",
    "ArchitectureModel": "model",
    "BasicEvent": "model",
    "CftweaveError": "errors",
    "CommonCause": "model",
    "Component": "model",
    "ComponentFaultTree": "model",
    "CutSet": "analyzer",
    "CutSetReport": "analyzer",
    "EventRef": "model",
    "FaultTree": "synthesizer",
    "FTBasicEvent": "synthesizer",
    "FTExternalEvent": "synthesizer",
    "FTGate": "synthesizer",
    "Finding": "model",
    "Gate": "model",
    "GateKind": "model",
    "InjectionSource": "weaver",
    "InputFailureMode": "model",
    "ModelError": "errors",
    "NodeRef": "model",
    "OracleError": "errors",
    "OutputFailureMode": "model",
    "ParseError": "errors",
    "PortConnection": "model",
    "ProvenanceEntry": "weaver",
    "Severity": "model",
    "SynthesisError": "errors",
    "TopEventRef": "synthesizer",
    "TruthTable": "oracle",
    "ValidationReport": "model",
    "WeaveError": "errors",
    "WovenModel": "weaver",
    "cutsets": "analyzer",
    "equivalent": "oracle",
    "evaluate": "analyzer",
    "export_dot": "textfmt",
    "fixture_names": "fixtures",
    "fixture_text": "fixtures",
    "load_fixture": "fixtures",
    "parse": "textfmt",
    "serialize": "textfmt",
    "synthesize": "synthesizer",
    "table_of_cutsets": "oracle",
    "table_of_network": "oracle",
    "table_of_tree": "oracle",
    "validate": "model",
    "weave": "weaver",
}
_MODULES = frozenset(_MODULE_OF.values())

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value  # later reads do not come here again
        return value
    if name in _MODULES:  # importing a submodule binds it in globals()
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # what an eager import lists: the package's own dunders, the public
    # names and the stage modules, not the lazy loader's helpers
    dunders = {name for name in globals() if name.startswith("__")}
    return sorted({*dunders - {"__getattr__", "__dir__"}, *_MODULE_OF, *_MODULES})
