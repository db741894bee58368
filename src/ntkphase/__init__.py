"""Depth evolution of infinite-width NNGP/NTK kernels: exact recursions,
phase analysis, spectra, mean-predictor metrics and sweep tooling."""

from .activations import Activation, ActivationKernel, diag_second_moment
from .data import DataGenerator, SyntheticDataset, generate_data, normals, shift_register_inputs
from .errors import (
    BracketError,
    CovarianceDomainError,
    DegenerateFixedPointError,
    DiagonalDriftError,
    IllConditionedError,
    NonConvergenceError,
    NtkPhaseError,
    SingularKernelError,
    StepSizeError,
    UndefinedPredictionError,
    WindowError,
    ZeroRowError,
)
from .phase import (
    Architecture,
    AsymptoticPrediction,
    Hyperparams,
    Phase,
    PhaseReport,
    analyze,
    critical_sigma_w2,
    depth_scales,
    fit_zeta,
    predict_scalar_corrections,
    predict_spectrum,
    slopes,
    solve_cstar,
    solve_qstar,
)
from .predictor import (
    DynamicsTrace,
    RegressionTask,
    center_labels,
    dynamics,
    max_learning_rate,
    mean_predict,
    ordered_limit_predictor,
)
from .propagation import (
    CnnKernel,
    KernelPair,
    OdeKernelState,
    ReadoutMode,
    ResidualVariant,
    apply_A,
    apply_dropout,
    dropout_kappa_limit,
    fourier_eigs,
    init_cnn_kernels,
    init_kernels,
    integrate_residual,
    normalize_inputs,
    normalize_inputs_cnn,
    paper_layer,
    propagate_cnn,
    propagate_fcn,
    readout,
    step_cnn,
    step_fcn,
)
from .spectra import RateFit, SpectrumSummary, fit_rate, spectrum
from .sweep import (
    SweepConfig,
    SweepOutput,
    SweepResult,
    kappa_trajectory,
    predictor_decay,
    run_sweep,
)

__version__ = "0.1.0"
