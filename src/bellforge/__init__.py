"""bellforge: exact partition-function machinery over factored products.

Closed sums indexed by integer partitions give the coefficients of products
``prod (1 - z t^m)^a``, of their reciprocals, and of ratios of two such
products; their expansion as a power series, on integers, provides an
independent route to every value.  Classical sequences (the partition
function, restricted counts, cubic and overcubic partitions, theta
coefficients) are exposed on top as prefixes, by ``sequence``, each with its
identity checks.

The public names load on first use (PEP 562): ``import bellforge`` imports
no submodule, and ``bellforge.name`` imports only the submodule defining it,
so a CLI request compiles only the modules it runs.
"""

__version__ = "1.0.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("divisors", "factorize sigma sigma_via_factorization"),
        ("arith", "InconsistencyError"),
        ("bellpoly", "ratio_coefficients"),
        ("partfun", "sequence work_estimate"),
        ("partitions", "iter_partitions"),
        ("series", "expand_ratio"),
        ("supports", "Factor ProductSpec SupportSet ratio spec_from_factors unscale"),
        (
            "verify",
            "IdentityReport index_additivity_report restricted_recursion_report "
            "set_additivity_report",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
