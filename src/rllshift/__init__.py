"""Toolkit for run-length-limited binary subshifts and their measures.

Each exported name loads its module on first use (PEP 562), so `import
rllshift` compiles none of them.
"""
import importlib

# module -> the names the package re-exports from it
_EXPORTS = {
    "words": (
        "CapacityError",
        "InadmissibleWordError",
        "count_words",
        "enumerate_words",
        "is_admissible_symbols",
    ),
    "measure": (
        "BernoulliTypeMeasure",
        "bernoulli",
        "cesaro_lambda",
        "mu_closed",
        "mu_recursive",
        "pullback_cylinder",
    ),
    "markov": (
        "SampleRun",
        "final_local_dimension",
        "sample",
    ),
    "dimension": (
        "DimensionProfile",
        "entropy_binary",
        "f_m",
        "g_m",
        "lower_bound",
        "profiles",
        "solve_qm",
        "topo_dim",
    ),
    "univoque": (
        "EventuallyPeriodicSequence",
        "GammaVerdict",
        "clean_windows",
        "gamma_check_periodic",
        "gamma_check_prefix",
        "theta_embed",
    ),
}
# exported name -> its module; a module is exported under its own name
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
