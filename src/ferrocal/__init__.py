"""ferrocal: calibration, fitting, and simulation for ferroelectric-MEMS
synaptic weights.

Layers: a closed-form switching model (kinetic law, Cauchy threshold
statistics, displacement transfer function), a hysteron-ensemble protocol
simulator, least-squares calibration of measured sweeps, kinetic-law
regression with universal data collapse, and discrete weight-level
extraction with DAC-aware programming.
"""

from .errors import (AmbiguousMarkerError, ConfigError, DomainError, FerrocalError,
                     FitError, MarkerAbsentError, ParseError, RangeError, RankError)
from .fitting import (AffineMap, CurveMarkers, LorentzianFit, affine_map_fit,
                      curve_markers, fit_family, fit_lorentzian_cdf,
                      half_saturation_crossing, zero_crossing)
from .kinetics import (CollapsePoint, MerzRegression, collapse_rms, collapse_transform,
                       fit_merz_nested, master_curve, regress_mu_fixed_tau)
from .levels import (LevelSet, Staircase, achieved_weight, count_dac_levels,
                     dac_code_voltages, dac_nearest_code, dac_voltage,
                     program_voltage_for_weight, s0_filter, s0_filter_with_margin,
                     staircase_of)
from .model import (DeviceCalibration, MerzKinetics, NlsSpec, ThresholdDistribution,
                    displacement_of_fraction, lorentzian_displacement,
                    nls_switched_fraction, switched_fraction_cdf, tau_of_field,
                    threshold_pdf, threshold_quantile, threshold_voltage)
from .simulate import (HysteronEnsemble, SwitchCurve, TriangularPulse, WriteProtocol,
                       apply_pulse, polarization_change_of_fraction, read_displacement,
                       run_protocol_sweep, sample_ensemble, thresholds_at)
from .sweepio import (emit_fit_report, emit_plotdata, emit_sweep_csv,
                      parse_fit_report, parse_sweep_csv)

__version__ = "0.1.0"

# every hot path is plain numpy; the name stays for tools that record it
kernel_backend = "numpy"
