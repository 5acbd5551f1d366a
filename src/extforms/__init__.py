"""Exact computational toolkit for exterior forms.

Sparse exterior algebra over the rationals, subspace-adapted decompositions
and main parts, the linear theory of wedge multiplication by a 2-form
(rank, kernel, solving Omega ^ beta = kappa), a symbolic differential-forms
layer for the recurrence d omega = beta ^ omega, and a small text DSL.

The public names below, and the submodules, are imported on first access
(PEP 562), so `import extforms` loads no layer and a command line process
loads only the layers its subcommand runs.
"""

__version__ = "0.1.0"

# home module -> the public names it exports here
_EXPORTS = {
    "algebra": ("ExtForm", "Vector", "alpha", "basis_vector", "constant_form", "covector",
                "evaluate", "interior", "interior_division", "iterated_interior",
                "make_form", "pairing", "scalar_of", "wedge", "wedge_all"),
    "dsl": ("DslError", "FormFile", "FormSource", "load_form_file", "parse_form",
            "parse_form_file", "print_form", "print_scalar"),
    "subspace": ("AdaptedFrame", "Decomposition", "Subspace", "adapted_cobase",
                 "annihilator", "decompose", "extract_derivative", "main_part", "span"),
    "symbolic": ("DiffForm", "ScalarExpr", "classify_theorem_sets", "cosymplectic_check",
                 "eval_at", "example_catalog", "exterior_derivative", "frobenius_residual",
                 "lee_solve", "lee_verify", "rank_at", "wedge_d", "wedge_d_all"),
    "wedge_solver": ("KernelProfile", "LambdaMatrix", "construct_kernel_element", "kernel2",
                     "kernel_main_profile", "lambda_matrix", "lambda_report", "rank2",
                     "rank2_pair_kernel", "solve_wedge"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_LAYERS = ("algebra", "dsl", "linalg", "randgen", "subspace", "symbolic", "wedge_solver")
_SUBMODULES = frozenset((*_LAYERS, "cli"))

__all__ = sorted([*_HOME, *_LAYERS])


def _submodule(name: str):
    # the import binds the submodule here; `__import__`, unlike
    # importlib.import_module, shows it in `python -X importtime`
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(mod), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
