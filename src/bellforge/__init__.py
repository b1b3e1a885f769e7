"""bellforge: exact partition-function machinery over factored products.

Closed sums indexed by integer partitions give the coefficients of products
``prod (1 - z t^m)^a``, of their reciprocals, and of ratios of two such
products; a truncated-power-series engine over exact rationals provides an
independent route to every value.  Classical sequences (the partition
function, restricted counts, cubic and overcubic partitions, theta
coefficients) are exposed on top, each with its identity checks.
"""

from .arith import (
    factorize,
    indicator,
    restricted_divisor_sum,
    sigma,
    sigma_via_factorization,
)
from .bellpoly import (
    IdentityReport,
    divisor_power_sum,
    index_additivity_report,
    log_weight,
    log_weight_table,
    partition_power_sum,
    product_coefficient,
    product_coefficients,
    ratio_coefficient,
    ratio_coefficients,
    reciprocal_coefficient,
    reciprocal_coefficients,
    set_additivity_report,
)
from .partfun import (
    FourFactorSpec,
    InconsistencyError,
    chan_product_coefficient,
    cubic_partition_count,
    four_factor_coefficient,
    kim_product_coefficient,
    overcubic_partition_count,
    partition_function,
    ramanujan_phi_coefficient,
    ramanujan_psi_coefficient,
    ratio_series,
    restricted_partition_count,
    restricted_recursion_report,
)
from .partitions import (
    count_exact_parts,
    count_partitions,
    count_restricted_bruteforce,
    iter_partitions,
    pentagonal_values,
)
from .series import TruncatedSeries, exp_log_expand, expand_product, expand_ratio
from .supports import Factor, ProductSpec, SupportSet, spec_from_factors

__version__ = "1.0.0"

__all__ = [
    "Factor",
    "FourFactorSpec",
    "IdentityReport",
    "InconsistencyError",
    "ProductSpec",
    "SupportSet",
    "TruncatedSeries",
    "chan_product_coefficient",
    "count_exact_parts",
    "count_partitions",
    "count_restricted_bruteforce",
    "cubic_partition_count",
    "divisor_power_sum",
    "exp_log_expand",
    "expand_product",
    "expand_ratio",
    "factorize",
    "four_factor_coefficient",
    "index_additivity_report",
    "indicator",
    "iter_partitions",
    "kim_product_coefficient",
    "log_weight",
    "log_weight_table",
    "overcubic_partition_count",
    "partition_function",
    "partition_power_sum",
    "pentagonal_values",
    "product_coefficient",
    "product_coefficients",
    "ramanujan_phi_coefficient",
    "ramanujan_psi_coefficient",
    "ratio_coefficient",
    "ratio_coefficients",
    "ratio_series",
    "reciprocal_coefficient",
    "reciprocal_coefficients",
    "restricted_divisor_sum",
    "restricted_partition_count",
    "restricted_recursion_report",
    "set_additivity_report",
    "sigma",
    "sigma_via_factorization",
    "spec_from_factors",
]
