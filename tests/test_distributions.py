"""Distribution zoo and model tests.

Sampler exactness is checked against scipy.stats CDFs (Kolmogorov-Smirnov
at the 1e-3 significance threshold), entropies against independent
quadrature (including a nested 2-D integration for product models),
quantiles against scipy.stats and closed forms, and the n-dimensional
models against hand-written density formulas.
"""
import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import solve, solve_triangular
from scipy.special import gammainc, gammaincinv

import infoconc.distributions
from infoconc.distributions import (
    _MAX_COUNT,
    AffineMap,
    BallUniform,
    Density1D,
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
from infoconc.numerics import (DomainError, NumericsError, de_rule,
                                logsumexp, peak_width)

from conftest import positive_zoo, standard_zoo

# ---------------------------------------------------------------------------
# oracles and frozen constants
# ---------------------------------------------------------------------------

# critical KS statistic at significance 1e-3: sqrt(ln(2/alpha)/2) / sqrt(m)
KS_COEFF_1E3 = math.sqrt(0.5 * math.log(2000.0))  # 1.94947...

EULER_GAMMA = 0.5772156649015329

# entropy of f(x) = x^2 e^(-x^2/2) / sqrt(pi/2) (chi with 3 degrees of
# freedom): log sqrt(2 pi) + gamma - 1/2
CHI3_ENTROPY = 0.5 * math.log(2.0 * math.pi) + EULER_GAMMA - 0.5


def ks_statistic(samples: np.ndarray, cdf) -> float:
    u = np.sort(np.asarray(cdf(np.sort(samples)), dtype=np.float64))
    m = u.size
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    return max(np.max(grid_hi - u), np.max(u - grid_lo))


def quadpack(f, support, tol: float) -> float:
    """scipy's QUADPACK value of the integral of f over ``support``, with
    relative tolerance 1e-12 and 200 subdivisions."""
    return quad(f, *support, epsabs=tol, epsrel=1e-12, limit=200,
                full_output=1)[0]


def quad_entropy(d: Density1D) -> float:
    def integrand(x: float) -> float:
        t = float(d.log_pdf(np.array([x]))[0])
        return 0.0 if t < -700.0 else -t * math.exp(t)

    return quadpack(integrand, d.support, tol=1e-11)


def quad_mass(d: Density1D) -> float:
    return quadpack(lambda x: float(np.exp(d.log_pdf(np.array([x]))[0])), d.support, tol=1e-11)


def interior_grid(d: Density1D, n: int = 41) -> np.ndarray:
    a, b = d.support
    if math.isinf(a) and math.isinf(b):
        return np.linspace(-8.0, 8.0, n)
    if math.isinf(b):
        return np.geomspace(max(a, 0.0) + 1e-3, max(a, 0.0) + 30.0, n)
    pad = (b - a) * 1e-6
    return np.linspace(a + pad, b - pad, n)


def standard_normal(n: int):
    """The standard normal in R^n, as the ``gaussian`` spec builds it."""
    return model_from_spec({"family": "gaussian", "params": {"dim": n}})


def zoo():
    return standard_zoo()


ZOO_IDS = [d.name for d in standard_zoo()]

# the standard zoo in scipy.stats, by name: the quantile and sampler oracle
SCIPY_ZOO = {
    "exponential": stats.expon(),
    "gamma(2)": stats.gamma(2.0),
    "gamma(5)": stats.gamma(5.0),
    "gaussian1d(0,1)": stats.norm(),
    "laplace": stats.laplace(),
    "uniform(0,1)": stats.uniform(0.0, 1.0),
    "half_normal": stats.halfnorm(),
}


# ---------------------------------------------------------------------------
# normalization, entropy, shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_zoo_density_is_normalized(d):
    assert abs(quad_mass(d) - 1.0) <= 1e-8


@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_zoo_entropy_matches_quadrature(d):
    assert abs(d.entropy - quad_entropy(d)) <= 1e-8


@pytest.mark.parametrize("sigma", [1e-200, 1e200])
def test_gaussian1d_entropy_at_extreme_scales(sigma):
    # sigma^2 underflows or overflows, but the entropy is finite:
    # log(2 pi e) / 2 + log sigma, here by mpmath at 40 digits
    with mp.workdps(40):
        want = float(mp.log(2 * mp.pi * mp.e) / 2 + mp.log(mp.mpf(sigma)))
    d = gaussian1d(3.0, sigma)
    assert abs(d.entropy - want) <= 1e-15 * abs(want)
    x = d.sample(np.random.default_rng(1), 1000)
    assert np.isfinite(d.log_pdf(x)).all()


@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_zoo_log_density_is_midpoint_concave(d):
    x = interior_grid(d, 81)
    lf = d.log_pdf(x)
    mid = d.log_pdf(0.5 * (x[:-1] + x[1:]))
    assert np.all(mid >= 0.5 * (lf[:-1] + lf[1:]) - 1e-9)


@pytest.mark.parametrize(
    "d", [exponential(), gamma(2.0), gamma(5.0), half_normal(), uniform(0.0, 1.0)],
    ids=["exponential", "gamma2", "gamma5", "half_normal", "uniform01"],
)
def test_order_p_factorization(d):
    # f(x) = x^(p-1) g(x) with g log-concave: log g must pass the midpoint test
    assert d.order_p is not None
    x = interior_grid(d, 41)
    mid = 0.5 * (x[:-1] + x[1:])
    log_g = lambda y: d.log_pdf(y) - (d.order_p - 1.0) * np.log(y)
    lg = log_g(x)
    assert np.all(log_g(mid) >= 0.5 * (lg[:-1] + lg[1:]) - 1e-9)


def test_order_p_missing_for_whole_line_families():
    assert gaussian1d().order_p is None
    assert laplace().order_p is None
    assert uniform(-1.0, 1.0).order_p is None


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_quantile_cdf_roundtrip(d):
    ref = SCIPY_ZOO[d.name]
    t = np.linspace(0.01, 0.99, 25)
    q = d.quantile(t)
    assert np.allclose(q, ref.ppf(t), rtol=0.0, atol=1e-10)
    assert np.allclose(ref.cdf(q), t, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_quantile_rejects_boundary_levels(d):
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            d.quantile(bad)


def test_exponential_quantile_closed_form():
    t = np.linspace(0.05, 0.95, 19)
    assert np.allclose(exponential().quantile(t), -np.log1p(-t), atol=1e-14)


def test_uniform_quantile_closed_form():
    d = uniform(2.0, 5.0)
    t = np.linspace(0.05, 0.95, 19)
    assert np.allclose(d.quantile(t), 2.0 + 3.0 * t, atol=1e-14)


@pytest.mark.parametrize("t", [1e-300, 1e-20, 1e-10, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
def test_half_normal_quantile_at_both_ends(t):
    # Phi^-1((1 + t)/2) from t/2 and (1 - t)/2, both exact, where (1 + t)/2
    # rounds 1 - 2^-53 to 1 and every t below 1e-16 to 1/2
    with mp.workdps(40):
        want = mp.sqrt(2) * mp.erfinv(mp.mpf(t))
        assert abs(float(half_normal().quantile(t)) - want) <= 2.0 * np.finfo(float).eps * want


# the gamma quantile's levels: the far lower tail, the percentiles, and
# the upper tail up to 1 - 1e-15
GAMMA_LEVELS = np.array([1e-300, 1e-30, 1e-8, *(np.arange(1, 100) / 100),
                         1.0 - 1e-8, 1.0 - 1e-15])


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 5.0, 37.0, 1e3])
def test_gamma_quantile_matches_gammaincinv(p):
    got = gamma(p).quantile(GAMMA_LEVELS)
    assert np.all(np.abs(got / gammaincinv(p, GAMMA_LEVELS) - 1.0) <= 1e-12)


def gamma_cdf(p: float, x: float):
    """P(p, x) by mpmath at 40 digits: x^p e^-x / Gamma(p + 1) times
    1F1(1; p + 1; x), its power series, which takes about sqrt(p) terms."""
    with mp.workdps(40):
        p, x = mp.mpf(p), mp.mpf(x)
        return (mp.exp(p * mp.log(x) - x - mp.loggamma(p + 1))
                * mp.hyp1f1(1, p + 1, x, maxterms=10**7))


@pytest.mark.parametrize("p", [1e4, 1e6, 1e8])
def test_gamma_quantile_at_large_shapes(p):
    d = gamma(p)
    upper = GAMMA_LEVELS[3:]
    assert np.all(np.abs(d.quantile(upper) / gammaincinv(p, upper) - 1.0) <= 1e-9)
    # below 0.01 the oracle is P(p, x) itself: gammaincinv misses there at
    # p = 1e8, where its P at the level 1e-8 is 1.44e-8
    for level in GAMMA_LEVELS[:3]:
        assert abs(gamma_cdf(p, float(d.quantile(level))) / level - 1) <= 1e-9


def test_gamma_quantile_is_finite_at_the_largest_shape():
    x = gamma(1e10).quantile(np.array([1e-300, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 1e-15]))
    assert np.isfinite(x).all() and np.all(np.diff(x) > 0.0)


def test_gamma_quantile_of_nineteen_levels_takes_a_millisecond():
    d, levels = gamma(5.0), np.arange(1, 20) / 20
    times = []
    for _ in range(20):
        start = time.perf_counter()
        d.quantile(levels)
        times.append(time.perf_counter() - start)
    assert min(times) <= 1e-3


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_sampler_matches_cdf_ks(d):
    x = d.sample(RngStream(seed=2024, stream_id=11).generator(), 1_000_000)
    assert ks_statistic(x, SCIPY_ZOO[d.name].cdf) < KS_COEFF_1E3 / 1000.0


# the support and the draw by the quantile belong to Density1D, not to
# each family: log_pdf is -inf at and past every finite end, finite at the
# family's own draws, and a family without a sampler of its own draws the
# quantile of the generator's uniforms
SUPPORT_ZOO = standard_zoo() + [gamma(1.0)]


@pytest.mark.parametrize("d", SUPPORT_ZOO, ids=[d.name for d in SUPPORT_ZOO])
def test_log_pdf_is_minus_inf_outside_the_support(d):
    for end, outward in zip(d.support, (-math.inf, math.inf)):
        if math.isfinite(end):
            x = np.array([end, np.nextafter(end, outward), outward])
            assert np.array_equal(d.log_pdf(x), np.full(3, -np.inf))
    x = d.sample(RngStream(seed=90).generator(), 1000)
    assert np.isfinite(d.log_pdf(x)).all()


@pytest.mark.parametrize("d", [exponential(), laplace()],
                         ids=["exponential", "laplace"])
def test_log_pdf_inside_the_support_makes_no_copy(d):
    # 2^20 points all inside the support, as sampled points are: the 8 MB
    # formula result plus the 1 MB mask, and no second 8 MB array to copy
    # it into
    x = d.sample(RngStream(seed=92).generator(), 2**20)
    tracemalloc.start()
    try:
        y = d.log_pdf(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.dtype == np.float64 and y.shape == x.shape
    assert peak < 12 * 2**20


def test_log_pdf_broadcasts_a_constant_formula():
    flat = from_log_density("flat", lambda x: 0.0, (0.0, 1.0))
    y = flat.log_pdf(np.array([0.25, 0.5]))
    assert y.dtype == np.float64 and np.array_equal(y, np.zeros(2))


QUANTILE_DRAWN = [exponential(), gamma(1.0), laplace(), uniform(-1.0, 2.0),
                  half_normal()]


@pytest.mark.parametrize("d", QUANTILE_DRAWN,
                         ids=[d.name for d in QUANTILE_DRAWN])
def test_default_draw_is_the_quantile_of_uniforms(d):
    rng = RngStream(seed=91, stream_id=3)
    x = d.sample(rng.generator(), 1000)
    u = np.maximum(rng.generator().random(1000), np.finfo(float).tiny)
    assert x.tobytes() == d.quantile(u).tobytes()


def test_gaussian_draw_is_the_scaled_standard_normal():
    rng = RngStream(seed=91, stream_id=3)
    x = gaussian1d(1.0, 2.0).sample(rng.generator(), 1000)
    assert x.tobytes() == (1.0 + 2.0 * rng.generator().standard_normal(1000)).tobytes()


def test_gamma_sample_moments():
    x = gamma(4.0).sample(RngStream(seed=5, stream_id=0).generator(), 1_000_000)
    # mean p, variance p; 5 sigma tolerances at m = 1e6
    assert abs(x.mean() - 4.0) <= 5.0 * 2.0 / 1000.0
    assert abs(x.var() - 4.0) <= 5.0 * math.sqrt(2 * 16 + 6 * 4) / 1000.0  # ~5*sd(x^2 terms)/sqrt(m)


def test_gamma_one_is_the_exponential_renamed():
    g, e = gamma(1.0), exponential()
    assert g.name == "gamma(1)"
    assert (g.support, g.entropy, g.mode, g.order_p) == \
        (e.support, e.entropy, e.mode, e.order_p)
    x = np.array([0.25, 1.0, 3.0])
    assert np.array_equal(g.log_pdf(x), e.log_pdf(x))
    assert np.array_equal(g.sample(RngStream(3).generator(), 5),
                          e.sample(RngStream(3).generator(), 5))


def test_gamma_shape_limit():
    # past 1e10 the log-density's rounding error is a visible share of the
    # deviations' spread of 0.69
    assert gamma(1e10).order_p == 1e10
    for p in (math.nextafter(1e10, math.inf), 1e14):
        with pytest.raises(ParameterError, match="must be at most 1e\\+10"):
            gamma(p)


def test_half_normal_sample_mean():
    x = half_normal().sample(RngStream(seed=6).generator(), 1_000_000)
    assert abs(x.mean() - math.sqrt(2.0 / math.pi)) <= 5.0 * math.sqrt(1.0 - 2.0 / math.pi) / 1000.0


def test_rejection_sampler_rejects_non_log_concave():
    # bimodal, normalized, enveloped at one mode: clearly above the
    # log-concave envelope at the other (from_log_density refuses it)
    def log_f(x):
        return (np.logaddexp(-0.5 * (x - 6.0) ** 2, -0.5 * (x + 6.0) ** 2)
                - math.log(2.0 * math.sqrt(2.0 * math.pi)))

    draw = infoconc.distributions._rejection_sampler(log_f, -6.0)
    with pytest.raises(ParameterError):
        draw(RngStream(seed=1).generator(), 10_000)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def test_stream_reproducibility():
    a = RngStream(seed=42, stream_id=3).generator().standard_normal(16)
    b = RngStream(seed=42, stream_id=3).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_differ_by_id_and_block():
    base = RngStream(seed=42, stream_id=0).generator().standard_normal(16)
    other = RngStream(seed=42, stream_id=1).generator().standard_normal(16)
    blocked = RngStream(seed=42, stream_id=0).generator(block=1).standard_normal(16)
    assert not np.array_equal(base, other)
    assert not np.array_equal(base, blocked)


@pytest.mark.parametrize("a,b", [((2**32, 0, 0), (0, 1, 0)),
                                 ((0, 2**32, 0), (0, 0, 1))],
                         ids=["seed_high_word", "stream_high_word"])
def test_stream_key_is_injective(a, b):
    # each pair is one stream under the key SeedSequence([seed, stream, b]),
    # which splits an int into as many 32-bit words as it needs
    def first(seed, stream_id, block):
        return RngStream(seed, stream_id).generator(block).random(8)

    assert not np.array_equal(first(*a), first(*b))
    assert np.array_equal(first(*a), first(*a))


def test_stream_validation():
    with pytest.raises(ParameterError):
        RngStream(seed=-1)
    with pytest.raises(ParameterError):
        RngStream(seed=0, stream_id=2**64)
    with pytest.raises(ParameterError):
        RngStream(seed=0).generator(block=-1)
    with pytest.raises(ParameterError):
        RngStream(seed=0).generator(block=2**64)


def filled_blocks(stream, out, block, workers) -> list:
    """``stream.fill`` of ``out`` with each block's generator's uniforms;
    returns the (first row, row count) of every block handed out."""
    calls = []

    def draw(gen, rows):
        assert rows.base is out and rows.shape[1:] == out.shape[1:]
        calls.append(((rows.ctypes.data - out.ctypes.data) // out.strides[0],
                      len(rows)))
        rows[...] = gen.random(rows.shape)

    stream.fill(out, block, draw, workers)
    return sorted(calls)


@pytest.mark.parametrize("total", [3 * 4 - 1, 3 * 4, 3 * 4 + 1])
def test_fill_schedule(total):
    block = 4
    stream = RngStream(seed=17, stream_id=2)
    outputs = []
    for workers in (1, 2, 5):
        out = np.zeros(total)
        # every block's rows exactly once, and block b drew from generator(b)
        blocks = [(lo, min(block, total - lo)) for lo in range(0, total, block)]
        assert filled_blocks(stream, out, block, workers) == blocks
        for b, (lo, rows) in enumerate(blocks):
            assert np.array_equal(out[lo:lo + rows],
                                  stream.generator(b).random(rows))
        outputs.append(out)
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(outputs[0], outputs[2])


@pytest.mark.parametrize("workers", [1, 3])
def test_fill_gives_each_block_its_own_rows(workers):
    # a 2-D array is cut into blocks of whole rows; the short last block
    # gets exactly its own two rows
    stream = RngStream(seed=19)
    out = np.zeros((10, 3))
    assert filled_blocks(stream, out, 4, workers) == [(0, 4), (4, 4), (8, 2)]
    for b in range(3):
        want = stream.generator(b).random((min(4, 10 - 4 * b), 3))
        assert np.array_equal(out[4 * b:4 * b + 4], want)


def test_fill_needs_a_worker():
    with pytest.raises(DomainError):
        RngStream(seed=1).fill(np.zeros(8), 4, lambda gen, rows: None, workers=0)


def test_fill_refuses_values_that_are_not_finite():
    # every block runs first, with float warnings off, then one error
    def draw(gen, rows):
        rows[...] = np.log(gen.random(len(rows)) - 2.0)

    with pytest.raises(NumericsError, match="not all finite"):
        RngStream(seed=1).fill(np.zeros(8), 4, draw, workers=2)


# ---------------------------------------------------------------------------
# n-dimensional models
# ---------------------------------------------------------------------------

def test_gaussian_log_density_at_origin():
    m = standard_normal(2)
    assert m.log_density(np.zeros(2)) == pytest.approx(-math.log(2.0 * math.pi), abs=1e-14)
    assert m.entropy == pytest.approx(math.log(2.0 * math.pi * math.e), abs=1e-14)


def test_gaussian_general_factor_matches_direct_formula():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    mu = np.array([0.5, -1.0, 2.0])
    m = model_from_spec({"family": "gaussian",
                         "params": {"mean": mu.tolist(), "cov_factor": t.tolist()}})
    cov = t @ t.T
    x = rng.normal(size=(5, 3))
    diff = x - mu
    direct = (
        -0.5 * 3 * math.log(2.0 * math.pi)
        - 0.5 * math.log(np.linalg.det(cov))
        - 0.5 * np.einsum("ij,jk,ik->i", diff, np.linalg.inv(cov), diff)
    )
    assert np.allclose(m.log_density(x), direct, atol=1e-10)
    assert m.entropy == pytest.approx(0.5 * math.log((2.0 * math.pi * math.e) ** 3 * np.linalg.det(cov)), abs=1e-10)


def test_gaussian_factor_sample_covariance():
    t = np.array([[2.0, 0.0], [1.0, 0.5]])
    m = model_from_spec({"family": "gaussian",
                         "params": {"mean": [0.0, 0.0], "cov_factor": t.tolist()}})
    x = m.sample(RngStream(seed=3).generator(), 200_000)
    cov = np.cov(x.T)
    assert np.allclose(cov, t @ t.T, atol=0.05)


def test_product_log_density_and_entropy():
    m = Product([(exponential(), 1), (exponential(), 1)])
    assert m.log_density(np.array([1.0, 1.0])) == pytest.approx(-2.0, abs=1e-14)
    assert m.entropy == pytest.approx(2.0, abs=1e-14)


def test_product_entropy_matches_2d_quadrature():
    # independent oracle: nested adaptive quadrature of -f log f over the plane
    d1, d2 = exponential(), gaussian1d()

    def inner(x: float) -> float:
        fx = math.exp(-x)

        def integrand(y: float) -> float:
            ly = float(d2.log_pdf(np.array([y]))[0])
            lf = -x + ly
            return 0.0 if lf < -700.0 else -lf * fx * math.exp(ly)

        return quadpack(integrand, (-math.inf, math.inf), tol=1e-11)

    h2d = quadpack(inner, (0.0, math.inf), tol=1e-9)
    m = Product([(d1, 1), (d2, 1)])
    assert abs(m.entropy - h2d) <= 1e-8


def test_ball_uniform_geometry():
    m = BallUniform(5, 1.5)
    x = m.sample(RngStream(seed=8).generator(), 100_000)
    r = np.sqrt(np.sum(x * x, axis=1))
    assert np.all(r <= 1.5 + 1e-12)
    # (r/R)^n is uniform on (0,1)
    assert ks_statistic((r / 1.5) ** 5, lambda u: u) < KS_COEFF_1E3 / math.sqrt(100_000)
    inside = m.log_density(np.zeros(5))
    assert inside == pytest.approx(-m.entropy, abs=1e-14)
    assert m.log_density(np.array([2.0, 0.0, 0.0, 0.0, 0.0])) == -math.inf


def test_dimension_mismatch_raises():
    m = standard_normal(3)
    with pytest.raises(ValueError):
        m.log_density(np.zeros(4))


def test_affine_map_determinant_rules():
    base = standard_normal(3)
    m = AffineMap(base, 2.0 * np.eye(3))
    assert m.entropy == pytest.approx(base.entropy + 3.0 * math.log(2.0), abs=1e-12)
    # pushforward density at T x equals base density at x minus log|det T|
    x = np.array([0.3, -0.7, 1.1])
    assert m.log_density(2.0 * x) == pytest.approx(
        float(base.log_density(x)) - 3.0 * math.log(2.0), abs=1e-12
    )


def test_affine_identity_matrix_applies_only_the_shift():
    # the bytes are those of the matrix product and the triangular solve
    base = Product([(exponential(), 1), (gaussian1d(), 1), (laplace(), 1)])
    shift = np.array([0.5, -1.0, 2.0])
    m = AffineMap(base, np.eye(3), shift)
    xb = base.sample(RngStream(seed=79).generator(), 500)
    xm = m.sample(RngStream(seed=79).generator(), 500)
    assert np.array_equal(xm, xb @ np.eye(3).T + shift)
    pre = solve_triangular(np.eye(3), (xm - shift).T, lower=True).T
    assert np.array_equal(m.log_density(xm), base.log_density(pre) - 0.0)


def test_affine_solve_matches_a_direct_solve():
    # condition number 1e6: the precomputed inverse loses about as many
    # digits as a backward-stable solve, cond * eps ~ 2e-10 relative
    gen = np.random.default_rng(80)
    q1, _ = np.linalg.qr(gen.normal(size=(16, 16)))
    q2, _ = np.linalg.qr(gen.normal(size=(16, 16)))
    t = q1 @ np.diag(np.geomspace(1.0, 1e-6, 16)) @ q2
    assert np.linalg.cond(t) == pytest.approx(1e6, rel=1e-6)
    shift = gen.normal(size=16)
    m = AffineMap(standard_normal(16), t, shift)
    x = gen.normal(size=(1000, 16))
    want = solve(t, (x - shift).T).T
    got = (x - shift) @ m._inverse_t
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() < 1e-9


def test_affine_map_requires_invertible_matrix():
    with pytest.raises(ParameterError):
        AffineMap(standard_normal(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


def _well_conditioned(gen: np.random.Generator, n: int) -> np.ndarray:
    q1, _ = np.linalg.qr(gen.normal(size=(n, n)))
    q2, _ = np.linalg.qr(gen.normal(size=(n, n)))
    return q1 @ np.diag(np.linspace(0.5, 2.0, n)) @ q2


def test_affine_pushforward_coupling_is_exact():
    base = Product([(exponential(), 1), (gaussian1d(), 1), (laplace(), 1),
                    (half_normal(), 1)])
    t = _well_conditioned(np.random.default_rng(0), 4)
    m = AffineMap(base, t, shift=np.array([1.0, -2.0, 0.5, 0.0]))
    xb = base.sample(RngStream(seed=77).generator(), 500)
    xm = m.sample(RngStream(seed=77).generator(), 500)
    assert np.array_equal(xm, xb @ t.T + np.array([1.0, -2.0, 0.5, 0.0]))


def test_affine_invariance_of_deviations():
    # h~(TX) - h(TX) must equal h~(X) - h(X) sample by sample
    base = Product([(d, 1) for d in (
        gamma(2.0), gaussian1d(), exponential(), laplace(),
        half_normal(), uniform(0.0, 1.0), gamma(5.0), gaussian1d(1.0, 2.0))])
    t = _well_conditioned(np.random.default_rng(5), 8)
    m = AffineMap(base, t, shift=np.linspace(-1.0, 1.0, 8))
    x = base.sample(RngStream(seed=101).generator(), 10_000)
    y = m.sample(RngStream(seed=101).generator(), 10_000)
    dev_base = -base.log_density(x) - base.entropy
    dev_push = -m.log_density(y) - m.entropy
    assert np.max(np.abs(dev_push - dev_base)) <= 1e-10


@pytest.mark.parametrize("make", [lambda: standard_normal(32),
                                  lambda: Product([(gaussian1d(), 32)])],
                         ids=["gaussian_model", "gaussian_product"])
def test_standard_normal_deviation_decomposition(make):
    m = make()
    x = m.sample(RngStream(seed=12).generator(), 10_000)
    dev = -m.log_density(x) - m.entropy
    explicit = np.sum((x * x - 1.0) / 2.0, axis=1)
    assert np.max(np.abs(dev - explicit)) <= 1e-10


def test_product_deviations_add():
    comps = [exponential(), gaussian1d(), laplace()]
    m = Product([(c, 1) for c in comps])
    x = m.sample(RngStream(seed=13).generator(), 2_000)
    total = -m.log_density(x) - m.entropy
    per = sum(-c.log_pdf(x[:, i]) - c.entropy for i, c in enumerate(comps))
    assert np.max(np.abs(total - per)) <= 1e-10


def stacked_log_density(m: Product, x: np.ndarray) -> np.ndarray:
    """Reference: one log_pdf call per column, summed over the stack."""
    columns = [d for d, k in m.runs for _ in range(k)]
    parts = [c.log_pdf(x[..., i]) for i, c in enumerate(columns)]
    return np.sum(np.stack(parts, axis=-1), axis=-1)


MIXED8 = {"family": "product", "params": {"components": [
    {"family": "exponential"},
    {"family": "gamma", "params": {"p": 3.0}},
    {"family": "gaussian1d", "params": {"mu": 0.0, "sigma": 1.0}},
    {"family": "laplace"},
    {"family": "uniform", "params": {"a": 0.0, "b": 1.0}},
    {"family": "half_normal"},
    {"family": "gaussian1d", "params": {"mu": 1.0, "sigma": 2.0}},
    {"family": "uniform", "params": {"a": -1.0, "b": 2.0}},
]}}
EXP64 = {"family": "product",
         "params": {"component": {"family": "exponential"}, "copies": 64}}


@pytest.mark.parametrize("spec", [MIXED8, EXP64], ids=["mixed8", "exp64"])
def test_grouped_product_log_density_equals_stacked_sum(spec):
    m = model_from_spec(spec)
    # more rows than one chunk, and not a whole number of chunks
    rows = (2**19 // m.dim) * 2 + 777
    x = m.sample(RngStream(seed=21).generator(), rows)
    x[::101] -= 1.5  # some points leave the supports of bounded components
    got = m.log_density(x)
    assert np.array_equal(got, stacked_log_density(m, x))
    assert np.isneginf(got).any()
    assert np.array_equal(m.log_density(x[:5].reshape(5, 1, m.dim)),
                          stacked_log_density(m, x[:5]).reshape(5, 1))
    assert m.log_density(x[7]) == stacked_log_density(m, x[7])


@pytest.mark.parametrize("budget", [2**16, 40], ids=["one_piece", "row_pieces"])
def test_product_runs_fill_rows_in_order(monkeypatch, budget):
    # runs of one inverse-CDF, gamma or custom (rejection) component, between
    # runs of other ones.  Rows come in pieces of budget // dim (4 rows at the
    # small budget); in each piece the k columns of a run are one draw of
    # rows * k values, filled row by row
    monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", budget)
    e, g, lap = exponential(), gamma(2.0), laplace()
    bump = from_log_density("bump", lambda x: -0.5 * x * x, (-math.inf, math.inf))
    runs = [(e, 3), (g, 2), (bump, 2), (e, 1), (lap, 1), (e, 1)]
    m = Product(runs)
    rows = budget // m.dim
    for size in (0, 1, 777):
        got = m.sample(RngStream(seed=22).generator(), size)
        gen = RngStream(seed=22).generator()
        want = np.empty((size, m.dim))
        for r in range(0, size, rows):
            n = min(rows, size - r)
            want[r:r + n] = np.hstack([c.sample(gen, n * k).reshape(n, k)
                                       for c, k in runs])
        assert np.array_equal(got, want)


def test_one_run_product_reads_its_stream_row_major(monkeypatch):
    # however the rows are pieced, a run of one component reads that
    # component's stream row by row, so row chunks of a Monte Carlo block
    # leave its bytes as they are
    m = model_from_spec(EXP64)
    want = exponential().sample(RngStream(seed=24).generator(), 777 * 64)
    for budget in (2**16, 5 * 64, 1):
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", budget)
        got = m.sample(RngStream(seed=24).generator(), 777)
        assert np.array_equal(got, want.reshape(777, 64))


def test_product_sample_temporaries_stay_bounded():
    # the 65536 x 64 output is 32 MB; drawing a whole run of 64 columns in
    # one call would add several arrays of that size
    m = model_from_spec(EXP64)
    tracemalloc.start()
    try:
        m.sample(RngStream(seed=23).generator(), 65536)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_product_copies_share_one_component():
    # a copies spec is one run (d, 64), whatever its dimension
    [(d, k)] = model_from_spec(EXP64).runs
    assert (d.name, k) == ("exponential", 64)


@pytest.mark.parametrize("spec,shape", [
    ({"family": "gaussian", "params": {"dim": 10**12}}, 5e11),
    ({"family": "product", "params": {"component": {"family": "exponential"},
                                      "copies": 10**12}}, 1e12),
], ids=["gaussian", "copies"])
def test_product_builds_in_its_runs_at_any_dim(spec, shape):
    # no list of 10^12 columns: the model is one run (d, 10^12)
    tracemalloc.start()
    try:
        m = model_from_spec(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (len(m.runs), m.dim, m.info_shape) == (1, 10**12, shape)


def test_product_dimension_past_the_count_bound_is_refused():
    with pytest.raises(ParameterError, match="product dimension must lie in"):
        Product([(exponential(), _MAX_COUNT), (laplace(), 1)])


def test_product_keeps_custom_densities_with_one_name_apart():
    narrow = from_log_density("bump", lambda x: -2.0 * x * x, (-math.inf, math.inf))
    wide = from_log_density("bump", lambda x: -0.125 * x * x, (-math.inf, math.inf))
    assert narrow.name == wide.name
    m = Product([(narrow, 1), (wide, 1), (narrow, 1)])
    x = np.array([[0.5, 2.0, -1.0], [1.5, -0.5, 0.25]])
    want = narrow.log_pdf(x[:, 0]) + wide.log_pdf(x[:, 1]) + narrow.log_pdf(x[:, 2])
    assert np.allclose(m.log_density(x), want, rtol=0.0, atol=1e-12)
    assert np.array_equal(m.log_density(x), stacked_log_density(m, x))


# ---------------------------------------------------------------------------
# custom densities
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chi3():
    return from_log_density(
        "chi3", lambda x: 2.0 * np.log(x) - 0.5 * x * x, (0.0, math.inf), order_p=3.0
    )


def test_custom_density_normalized(chi3):
    assert abs(quad_mass(chi3) - 1.0) <= 1e-8


def test_custom_density_entropy_closed_form(chi3):
    assert abs(chi3.entropy - CHI3_ENTROPY) <= 1e-8


def test_custom_density_mode(chi3):
    assert chi3.mode == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_custom_density_quantile_roundtrip(chi3):
    for t in (0.1, 0.5, 0.9):
        q = float(chi3.quantile(t))
        assert abs(float(stats.chi(3).cdf(q)) - t) <= 1e-9
    # arrays map to arrays of the same shape
    qs = chi3.quantile(np.array([0.25, 0.75]))
    assert qs.shape == (2,)
    assert np.all(np.diff(qs) > 0.0)


def test_custom_density_sampler_ks(chi3):
    x = chi3.sample(RngStream(seed=21).generator(), 200_000)
    # chi with 3 degrees of freedom: F(x) = P(chi2_3 <= x^2)
    stat = ks_statistic(x, lambda s: gammainc(1.5, 0.5 * s * s))
    assert stat < KS_COEFF_1E3 / math.sqrt(200_000)


def test_custom_density_build_evaluates_arrays():
    # the mode search, peak width and normalizing rule each evaluate the
    # log-density on whole arrays; only the envelope's peak is one point
    sizes = []

    def logistic(x):
        sizes.append(np.size(x))
        return -x - 2.0 * np.logaddexp(0.0, -x)

    d = from_log_density("logistic", logistic, (-math.inf, math.inf))
    assert sum(size == 1 for size in sizes) <= 1
    assert len(sizes) <= 20
    assert d.mode == pytest.approx(0.0, abs=1e-6)


def _bimodal(x):
    return np.logaddexp(-0.5 * (x - 3.0) ** 2, -0.5 * (x + 3.0) ** 2)


def _convex_kinks(x):
    # slope -2 inside [-1, 1], -1 outside: a convex kink at each of +-1
    return np.maximum(-2.0 * np.abs(x), -1.0 - np.abs(x))


@pytest.mark.parametrize("log_f, support, order_p", [
    (_bimodal, (-math.inf, math.inf), None),
    (_convex_kinks, (-math.inf, math.inf), None),
    (lambda x: math.log(2.0) - 2.0 * np.sqrt(x), (0.0, math.inf), None),
    # x^2 e^-x is gamma(3), log-concave, but not of order 5: log f less
    # 4 log x is convex
    (lambda x: 2.0 * np.log(x) - x, (0.0, math.inf), 5.0),
], ids=["bimodal", "convex_kinks", "sqrt_tail", "order_p_past_its_factor"])
def test_custom_density_outside_the_hypothesis_raises(log_f, support, order_p):
    with pytest.raises(ParameterError, match="not log-concave"):
        from_log_density("bad", log_f, support, order_p)


def test_custom_density_hypothesis_check_names_where_the_slope_rises():
    with pytest.raises(ParameterError) as info:
        from_log_density("bimodal", _bimodal, (-math.inf, math.inf))
    # the log-density is convex where |x| < 0.59, between the two modes
    x = float(str(info.value).split("increases at x = ")[1].split(",")[0])
    assert abs(x) < 0.59


REBUILT = [*standard_zoo(), *positive_zoo(), gamma(1.01), gamma(1e4),
           gaussian1d(1e3, 1e-3), uniform(-1e3, 5e3)]


@pytest.mark.parametrize("d", REBUILT, ids=[d.name for d in REBUILT])
def test_zoo_densities_rebuilt_from_their_log_density_build(d):
    # within the hypothesis, with and without the order-p factor, however
    # far the nodes crowd towards an end or the mode
    for order_p in {d.order_p, None}:
        rebuilt = from_log_density(d.name, d.log_pdf, d.support, order_p)
        assert abs(rebuilt.entropy - d.entropy) <= 1e-9 * max(1.0, abs(d.entropy))


@pytest.mark.parametrize("log_f", [
    lambda x: -x - 2.0 * np.logaddexp(0.0, -x),
    lambda x: x - np.exp(x),
], ids=["logistic", "gumbel_min"])
def test_log_concave_custom_densities_build(log_f):
    with np.errstate(over="ignore"):
        d = from_log_density("custom", log_f, (-math.inf, math.inf))
    assert d.mode == pytest.approx(0.0, abs=1e-6)


def test_custom_density_rejects_bad_support():
    with pytest.raises(ParameterError):
        from_log_density("bad", lambda x: -x * x, (2.0, 2.0))
    with pytest.raises(ParameterError):
        from_log_density("bad", lambda x: -x * x, (-1.0, 1.0), order_p=2.0)


# ---------------------------------------------------------------------------
# quantile density
# ---------------------------------------------------------------------------

def test_quantile_density_uniform_is_one():
    t = np.linspace(0.05, 0.95, 19)
    assert np.allclose(quantile_density(uniform(0.0, 1.0), t), 1.0, atol=1e-12)


def test_quantile_density_exponential_closed_form():
    t = np.linspace(0.05, 0.95, 19)
    assert np.allclose(quantile_density(exponential(), t), 1.0 - t, atol=1e-12)


def test_quantile_density_gaussian_closed_form():
    t = np.linspace(0.05, 0.95, 19)
    q = gaussian1d().quantile(t)
    expect = np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    assert np.allclose(quantile_density(gaussian1d(), t), expect, atol=1e-12)


@pytest.mark.parametrize("d", zoo(), ids=ZOO_IDS)
def test_quantile_density_positive_and_midpoint_concave(d):
    t = np.linspace(0.05, 0.95, 19)
    i_t = quantile_density(d, t)
    assert np.all(i_t > 0.0)
    mid = quantile_density(d, 0.5 * (t[:-1] + t[1:]))
    assert np.all(mid >= 0.5 * (i_t[:-1] + i_t[1:]) - 1e-9)


def test_quantile_density_domain():
    with pytest.raises(DomainError):
        quantile_density(exponential(), 0.0)


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

ZOO_SPECS = [{"family": "exponential"},
             {"family": "gamma", "params": {"p": 2.0}},
             {"family": "gamma", "params": {"p": 5.0}},
             {"family": "gaussian1d"}, {"family": "laplace"},
             {"family": "uniform", "params": {"a": 0.0, "b": 1.0}},
             {"family": "half_normal"}]


def test_density_spec_roundtrip():
    # a density holds no spec: each spec builds its zoo member
    for spec, d in zip(ZOO_SPECS, standard_zoo(), strict=True):
        rebuilt = density_from_spec(spec)
        assert rebuilt.name == d.name
        assert rebuilt.entropy == pytest.approx(d.entropy, abs=1e-14)
        x = interior_grid(d, 7)
        assert np.allclose(rebuilt.log_pdf(x), d.log_pdf(x), atol=1e-14)


def test_one_dim_family_promotes_to_model():
    m = model_from_spec({"family": "laplace"})
    assert m.dim == 1
    assert m.entropy == pytest.approx(1.0 + math.log(2.0), abs=1e-14)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "nope"},
        {"no_family": 1},
        {"family": "gamma", "params": {"p": 0.5}},
        {"family": "uniform", "params": {"a": 2.0, "b": 1.0}},
        {"family": "gaussian1d", "params": {"sigma": -1.0}},
        {"family": "ball_uniform", "params": {"dim": 0}},
        {"family": "product", "params": {}},
        {"family": "gamma", "params": {"shape": 2.0}},
        {"family": "gaussian", "params": {"dim": 2.7}},
        {"family": "ball_uniform", "params": {"dim": 2.5}},
        {"family": "product", "params": {"component": {"family": "laplace"},
                                         "copies": 2.5}},
        {"family": "product", "params": {"component": {"family": "laplace"},
                                         "copies": True}},
        {"family": "gaussian", "params": {"mean": 5}},
        {"family": "gaussian", "params": {"cov_factor": 2}},
        {"family": "gaussian", "params": {"dim": 3, "mean": [0.5, -1.0]}},
        {"family": "product", "params": {"component": {"family": "laplace"},
                                         "copies": "3"}},
        {"family": "gaussian", "params": {"dim": "3"}},
        {"family": "ball_uniform", "params": {"dim": "2"}},
    ],
)
def test_bad_specs_raise_parameter_error(spec):
    with pytest.raises(ParameterError):
        model_from_spec(spec)


@pytest.mark.parametrize("build,name", [
    (lambda: gaussian1d(math.nan, 1.0), "gaussian1d mu"),
    (lambda: gaussian1d(0.0, math.inf), "gaussian1d sigma"),
    (lambda: uniform(-math.inf, 0.0), "uniform a"),
    (lambda: uniform(0.0, math.nan), "uniform b"),
    (lambda: gamma(math.inf), "gamma shape p"),
    (lambda: density_from_spec({"family": "gaussian1d",
                                "params": {"mu": math.nan}}), "gaussian1d mu"),
    (lambda: model_from_spec({"family": "ball_uniform",
                              "params": {"dim": 3, "radius": math.inf}}),
     "ball radius"),
    (lambda: model_from_spec({"family": "gaussian",
                              "params": {"mean": [1e400, 0.0]}}),
     "gaussian mean"),
    (lambda: model_from_spec({"family": "gaussian", "params": {
        "cov_factor": [[1.0, 0.0], [math.nan, 1.0]]}}), "gaussian cov_factor"),
    (lambda: AffineMap(standard_normal(2), [[math.inf, 0.0], [0.0, 1.0]]),
     "affine map matrix"),
    (lambda: model_from_spec({"family": "affine", "params": {
        "base": {"family": "exponential"}, "matrix": [[2.0]],
        "shift": [-math.inf]}}), "affine map shift"),
], ids=["mu", "sigma", "a", "b", "p", "spec_mu", "ball_radius",
        "gaussian_mean", "gaussian_cov_factor", "affine_matrix",
        "affine_shift"])
def test_non_finite_parameters_are_named(build, name):
    # refused before any arithmetic on them: slogdet of a NaN matrix warns
    # and calls it singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            build()


@pytest.mark.parametrize("spec,name", [
    ({"family": "gamma", "params": {"p": True}}, "gamma shape p"),
    ({"family": "gaussian1d", "params": {"sigma": True}}, "gaussian1d sigma"),
    ({"family": "uniform", "params": {"a": False}}, "uniform a"),
    ({"family": "ball_uniform", "params": {"dim": 2, "radius": True}},
     "ball radius"),
    ({"family": "gamma", "params": {"p": "2"}}, "gamma shape p"),
    ({"family": "uniform", "params": {"b": "2"}}, "uniform b"),
], ids=["gamma_p", "gaussian1d_sigma", "uniform_a", "ball_radius",
        "gamma_p_string", "uniform_b_string"])
def test_boolean_parameters_are_refused(spec, name):
    # JSON true is a bool, not the number 1
    with pytest.raises(ParameterError, match=f"{name} must be a number"):
        model_from_spec(spec)


@pytest.mark.parametrize("spec,name", [
    ({"family": "affine", "params": {"base": {"family": "exponential"},
                                     "matrix": [[True]]}}, "affine map matrix"),
    ({"family": "affine", "params": {"base": {"family": "exponential"},
                                     "matrix": [[2.0]], "shift": [True]}},
     "affine map shift"),
    ({"family": "gaussian", "params": {"mean": [True, 0],
                                       "cov_factor": [[1.0, 0.0], [0.0, 1.0]]}},
     "gaussian mean"),
    ({"family": "affine", "params": {"base": {"family": "exponential"},
                                     "matrix": [["2"]]}}, "affine map matrix"),
    ({"family": "gaussian", "params": {"mean": ["1", 0],
                                       "cov_factor": [[1.0, 0.0], [0.0, 1.0]]}},
     "gaussian mean"),
], ids=["affine_matrix", "affine_shift", "gaussian_mean",
        "affine_matrix_string", "gaussian_mean_string"])
def test_boolean_array_entries_are_refused(spec, name):
    # [[true]] converts to a bool array and [true, 0] to int64, so each
    # entry is looked at, not only the array's dtype
    with pytest.raises(ParameterError, match=f"{name} must hold numbers"):
        model_from_spec(spec)


def test_information_law_mean_is_the_entropy():
    # -log f(X) - h = Gamma(k, 1) - k in law: over the family's own draws,
    # -log f(X) has mean h and variance k; the shapes are checked in law
    # by the trajectory tests
    m = 20000
    gen = np.random.default_rng(3)
    for d, k in [(exponential(), 1.0), (gamma(1.0), 1.0), (laplace(), 1.0),
                 (gaussian1d(0.7, 1.9), 0.5), (half_normal(), 0.5),
                 (uniform(-1.0, 2.0), 0.0)]:
        assert d.info_shape == k, d.name
        info = -d.log_pdf(d.sample(gen, m))
        assert abs(info.mean() - d.entropy) <= 5.0 * math.sqrt(k / m) + 1e-14, d.name
        # the sample variance of Gamma(k) has excess kurtosis 6 / k
        slack = 5.0 * k * math.sqrt((2.0 + 6.0 / max(k, 1e-300)) / m)
        assert abs(info.var() - k) <= slack + 1e-14, d.name
    assert gamma(2.0).info_shape is None
    bump = from_log_density("bump", lambda x: -0.5 * x * x, (-math.inf, math.inf))
    assert bump.info_shape is None


# every 1-D family, by spec name, with the cases of it that the exact
# information-law test integrates
INFO_SHAPE_CASES = {
    "exponential": [exponential()],
    "gamma": [gamma(1.0), gamma(2.0), gamma(5.0), gamma(37.5)],
    "gaussian1d": [gaussian1d(0.7, 1.9)],
    "laplace": [laplace()],
    "uniform": [uniform(-1.0, 2.0)],
    "half_normal": [half_normal()],
}


def test_information_law_is_exact():
    # log int f^t = log E f(X)^(t - 1), the log moment function of -log f(X)
    # at 1 - t: with -log f(X) - h ~ Gamma(K, 1) - K it is
    # (1 - t)(h - K) - K log t, and for gamma(p) it is
    # log Gamma(t(p-1)+1) - (t(p-1)+1) log t - t log Gamma(p) in closed form
    assert set(INFO_SHAPE_CASES) == set(infoconc.distributions._FAMILIES)
    ts = np.arange(1, 61) * 0.05
    for d in (d for cases in INFO_SHAPE_CASES.values() for d in cases):
        scale = peak_width(d.log_pdf, d.mode, d.support)
        log_mass = de_rule(
            lambda x, log_w: logsumexp(ts[:, None] * d.log_pdf(x) + log_w, axis=1),
            d.support, center=d.mode, scale=scale)
        assert log_mass.converged.all(), d.name
        k = d.info_shape
        if k is not None:
            want = (1.0 - ts) * (d.entropy - k) - k * np.log(ts)
        else:
            q = ts * (d.order_p - 1.0) + 1.0
            want = np.array([math.lgamma(v) for v in q]) - q * np.log(ts) \
                - ts * math.lgamma(d.order_p)
        np.testing.assert_allclose(log_mass.value, want, rtol=0.0,
                                   atol=1e-12, err_msg=d.name)


def test_information_split():
    # the law runs' shapes times copies add up to K; with no law component
    # info_shape is None, and an affine image has its base's
    g2 = gamma(2.0)
    bump = from_log_density("bump", lambda x: -0.5 * x * x, (-math.inf, math.inf))
    no_law = Product([(g2, 2)])
    for model, shape in [
        (model_from_spec({"family": "gamma", "params": {"p": 2.0}}), None),
        (no_law, None),
        (model_from_spec(MIXED8), 3.5),
        (Product([(bump, 1), (exponential(), 1), (g2, 1), (laplace(), 1)]), 2.0),
        (AffineMap(Product([(g2, 1), (exponential(), 1)]),
                   [[2.0, 0.0], [1.0, 1.0]]), 1.0),
        (AffineMap(no_law, [[2.0, 0.0], [1.0, 1.0]]), None),
        (standard_normal(6), 3.0),
        (BallUniform(3), 0.0),
    ]:
        assert model.info_shape == shape


def test_density_from_spec_dispatch():
    d = density_from_spec({"family": "gamma", "params": {"p": 3.0}})
    assert d.order_p == 3.0
    with pytest.raises(ParameterError, match="unknown 1-D family 'weibull'"):
        density_from_spec({"family": "weibull"})


def test_positive_zoo_supports():
    members = positive_zoo()
    assert len(members) >= 6
    assert all(d.support[0] >= 0.0 for d in members)
