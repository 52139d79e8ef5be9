"""Numerical certification of information concentration in log-concave samples.

The information content of a sample X from a density f is -log f(X); its
deviation from the entropy concentrates at rate sqrt(n) in the dimension,
uniformly over log-concave models.  This package draws exact samples,
estimates the relevant tails, exponential moments, and variances with
honest confidence intervals, and compares them against the closed-form
bounds, reporting HOLDS / INCONCLUSIVE / VIOLATED per grid point.
"""
from .numerics import (
    DomainError,
    IntegrandError,
    NumericsError,
    log_gamma,
    trigamma,
)
from .distributions import (
    AffineMap,
    BallUniform,
    Density1D,
    ModelND,
    ParameterError,
    Product,
    RngStream,
    density_from_spec,
    exponential,
    from_log_density,
    gamma,
    gaussian1d,
    half_normal,
    laplace,
    model_from_spec,
    quantile_density,
    uniform,
)
from .bounds import (
    Bound,
    BoundVerdict,
    catalog,
    compare,
    entropy_power_floor,
    exp_tail_bound,
    gaussian_tail_bound,
    mgf_bound_nd,
    order_p_variance_caps,
    per_coordinate_tail_bound,
    variance_cap_nd,
)
from .infotools import (
    BLOCK_SIZE,
    InfoSampleBatch,
    McEstimate,
    deviation_mean,
    deviation_variance,
    empirical_mgf,
    empirical_tail,
    entropy_power_band,
    sample_information,
)
from .lyapunov import (
    MomentCurve,
    check_convexity_direction,
    moment_curve,
    order_p_variance_check,
    quantile_density_concavity,
)
from .aep import GaussAR1, IIDProcess, TrajectoryReport, run_trajectories

__version__ = "0.1.0"
