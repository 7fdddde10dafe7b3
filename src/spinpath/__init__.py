"""Simulator of a single-particle spin/path interferometric Bell test.

One massive particle carries two entangled degrees of freedom, its spin and
its interferometer path. The package computes the ideal quantum correlations
for joint spin/path measurements, models a realistic counting instrument
with finite interference contrast, runs seeded Monte Carlo scans through the
same sinusoid-fit estimator an experiment would use, and certifies the
classical CHSH bound |S| <= 2 by brute-force enumeration of noncontextual
hidden-variable strategies.
"""

from .analysis import (
    ChshResult,
    ExpectationEstimate,
    FitResult,
    chsh_sum,
    e_obs_from_counts,
    e_obs_from_fits,
    fit_rate_curve,
    fit_rate_curves,
    fit_sinusoid,
    max_violation_settings,
    s_of_visibility,
    s_prime,
    term_signs,
    visibility_threshold,
    weighted_average,
)
from .apparatus import (
    CONTRAST_LIMITED_S,
    DEFAULT_MEAN_RATE,
    IDEAL_S,
    REFERENCE_EXPECTATIONS,
    REFERENCE_S,
    REFERENCE_S_SIGMA,
    ApparatusModel,
    ScanPlan,
    predicted_rate,
    reference_apparatus,
)
from .config import RunConfig, config_from_text, load_config, parse_angle
from .errors import (
    ConfigError,
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    PreconditionError,
    SingularFitError,
    SpinPathError,
)
from .lhv import (
    empirical_s,
    ensemble_s,
    enumerate_strategies,
    sample_ensemble_counts,
    strategy_s,
)
from .montecarlo import (
    ScanResult,
    noiseless_scan,
    read_scan_csv,
    sample_full_experiment,
    sample_scan,
    split_repetitions,
    substream,
    write_scan_csv,
)
from .pipeline import (
    reproduce_pipeline,
    run_chsh,
    run_fit,
    run_lhv,
    run_simulate,
    run_threshold,
)
from .states import (
    DensityOperator,
    JointState,
    Setting,
    bell_state,
    dephase_path,
    expectation,
    expectation_mixed,
    joint_probability,
    path_observable,
    path_projector,
    spin_observable,
    spin_projector,
)

__version__ = "0.1.0"
