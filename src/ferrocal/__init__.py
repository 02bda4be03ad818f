"""ferrocal: calibration, fitting, and simulation for ferroelectric-MEMS
synaptic weights.

Layers, each importing only those before it: ``errors``; ``model``, the
closed-form switching model and all that two other modules share; then
``config``, ``simulate`` (protocol simulator), ``fitting`` (sweep fits),
``kinetics`` (Merz law, collapse), ``levels`` (weight levels, DAC) and
``sweepio`` (file formats), side by side; and ``cli``.
"""

from .errors import (AmbiguousMarkerError, ConfigError, DomainError, FerrocalError,
                     FitError, ParseError, RangeError, RankError)
from .fitting import CurveMarkers, curve_markers, fit_family, fit_lorentzian_cdf
from .kinetics import (MerzRegression, collapse_rms, collapse_transform, fit_merz_nested,
                       regress_mu_fixed_tau)
from .levels import (LevelSet, achieved_weight, count_dac_levels, dac_nearest_code,
                     dac_voltage, program_voltage_for_weight, s0_filter,
                     s0_filter_with_margin)
from .model import (DeviceCalibration, LorentzianFit, MerzKinetics, NlsSpec, SwitchCurve,
                    ThresholdDistribution, TriangularPulse, WriteProtocol, master_curve,
                    nls_switched_fraction, switched_fraction_cdf, threshold_quantile)
from .simulate import (HysteronEnsemble, polarization_change_of_fraction, run_protocol_sweep,
                       sample_ensemble, simulate_sweeps, thresholds_at)
from .sweepio import (emit_collapse, emit_fit_report, emit_levels_csv, emit_sweep_csv,
                      parse_fit_report, parse_sweep_csv)

__version__ = "0.1.0"

# every hot path is plain numpy; the name stays for tools that record it
kernel_backend = "numpy"
