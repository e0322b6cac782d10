"""Static analysis and chain planning for rule-based model transformations.

The public names load on first use (PEP 562): `import xformlens` imports
no submodule, and `xformlens.render` imports `xformlens.report` alone.
"""

__version__ = "0.1.0"

# The public names of each module.
_EXPORTS = {
    "analyzer": (
        "AnalysisReport", "ConceptProfile", "FixedPointVerdict", "Lint", "MetamodelMismatchError", "Mode",
        "RuleClassification", "analyze", "analyze_library", "classify_rule", "detect_fixed_point",
    ),
    "chain": ("ChainCompatibilityError", "ChainPlan", "ChainStep", "check_chain", "plan_chain", "propagate"),
    "metamodel": (
        "Concept", "Feature", "Metamodel", "ParseError", "concrete_concepts", "parse_metamodel", "pretty_print",
    ),
    "report": (
        "ProfileGroup", "Table", "ignored_table", "profile_groups", "referenced_table", "render",
        "report_table", "report_to_json", "table_from_json",
    ),
    "transformation": (
        "Binding", "ConceptRef", "Expression", "Helper", "Rule", "TargetPattern", "Transformation",
        "parse_transformation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin __import__, not importlib, whose import loads warnings as well: about 1 ms a start.
    value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups do not come back here
    return value
