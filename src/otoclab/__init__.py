"""Numerical laboratory for chaos signatures of quantized torus maps.

Builds quantized cat, standard, and Harper maps, computes out-of-time
ordered correlators under unitary or translation-dephased dynamics, and
extracts the classical quantities that govern the two OTOC regimes: the
Lyapunov exponent (short-time growth) and the leading Ruelle-Pollicott
resonances (long-time decay).
"""

from .phase_space import (POSITION, MOMENTUM, TorusSpace, PhaseVector, OperatorMatrix,
                          ChordCoefficients, shift_v, clock_u, symplectic_product,
                          translation, sine_position, sine_momentum, hermitian_f,
                          chord_transform, chord_inverse, change_basis, coherent_state,
                          hermiticity_defect, unitarity_defect)
from .maps import (ClassicalMapSpec, QuantumMap, cat_map, standard_map, harper_map,
                   classical_step, jacobian, quantize, kick_prefactor, apply_map,
                   materialize)
from .classical import (CAT_LYAPUNOV, MonodromyPower, LyapunovEstimate,
                        cat_matrix_power, lyapunov, ehrenfest_time)
from .otoc import (OtocSeries, heisenberg_evolve, otoc_series, otoc_via_commutator,
                   analytic_cat_otoc, otoc_family_linear, fit_lyapunov_from_otoc,
                   fit_growth, loglinear_fit, WindowFit)
from .coarse_graining import (CoarseGrainKernel, build_kernel, apply_dephasing_dense,
                              apply_dephasing_chord, evolve, channel_step)
from .resonances import (ResonanceSpectrum, dense_superoperator, full_spectrum,
                         krylov_leading, fit_tail_rate, spectral_o1_prediction,
                         random_traceless_hermitian)

__version__ = "0.1.0"
