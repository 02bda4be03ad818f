"""ferrocal: calibration, fitting, and simulation for ferroelectric-MEMS
synaptic weights.

Layers: a closed-form switching model (kinetic law, Cauchy threshold
statistics, displacement transfer function), a hysteron-ensemble protocol
simulator, least-squares calibration of measured sweeps, kinetic-law
regression with universal data collapse, and discrete weight-level
extraction with DAC-aware programming.
"""

from .errors import (AmbiguousMarkerError, ConfigError, DomainError, FerrocalError,
                     FitError, ParseError, RangeError, RankError)
from .fitting import (CurveMarkers, LorentzianFit, curve_markers, fit_family,
                      fit_lorentzian_cdf)
from .kinetics import (MerzRegression, collapse_rms, collapse_transform, fit_merz_nested,
                       master_curve, regress_mu_fixed_tau)
from .levels import (LevelSet, achieved_weight, count_dac_levels, dac_nearest_code,
                     dac_voltage, program_voltage_for_weight, s0_filter,
                     s0_filter_with_margin)
from .model import (DeviceCalibration, MerzKinetics, NlsSpec, ThresholdDistribution,
                    lorentzian_displacement, nls_switched_fraction, switched_fraction_cdf,
                    tau_of_voltage, threshold_pdf, threshold_quantile, threshold_voltage)
from .simulate import (HysteronEnsemble, SwitchCurve, TriangularPulse, WriteProtocol,
                       polarization_change_of_fraction, run_protocol_sweep, sample_ensemble,
                       simulate_sweeps, thresholds_at)
from .sweepio import (emit_fit_report, emit_levels_csv, emit_plotdata, emit_sweep_csv,
                      parse_fit_report, parse_sweep_csv)

__version__ = "0.1.0"

# every hot path is plain numpy; the name stays for tools that record it
kernel_backend = "numpy"
