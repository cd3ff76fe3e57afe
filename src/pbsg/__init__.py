"""Deciders and brute-force oracles for semigroups of partial bijections
given by generators.

Importing the package loads none of its modules: each name below is looked
up in its defining module on first access (PEP 562), so a program, and each
``pbsg`` subcommand, loads only the modules it uses.
"""

import importlib

#: Public names by the module that defines them.
_EXPORTS = {
    "checkers": (
        "check_band_semilattice",
        "check_clifford",
        "check_commutative",
        "check_completely_regular",
        "check_left_identity_exists",
        "check_right_identity_exists",
        "enumerate_identities",
        "run_generator_check",
    ),
    "closure": (
        "DEFAULT_BUDGET",
        "DEFAULT_LIMIT",
        "GeneratorSet",
        "LimitExceeded",
        "MemberResult",
        "SemigroupClosure",
        "close",
        "evaluate_word",
        "member",
    ),
    "identities": (
        "EmptyWordError",
        "Identity",
        "IdentitySyntaxError",
        "PremiseMismatchError",
        "apply_assignment",
        "format_identity",
        "parse_identity",
    ),
    "model_checker": (
        "BoundaryGuess",
        "Counterexample",
        "ModelCheckResult",
        "check_variable_run",
        "models",
        "realize_assignment",
    ),
    "oracle": (
        "OracleModelResult",
        "oracle_identities",
        "oracle_models",
        "oracle_report",
    ),
    "pbij": ("PartialBijection", "all_partial_bijections"),
    "properties": ("CheckReport", "IdentityLists", "PropertyName"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # ``pbsg.closure`` works before anything imports it
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
