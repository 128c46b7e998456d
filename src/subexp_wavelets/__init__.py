"""Band-limited orthonormal wavelets with subexponential decay.

Construction of the wavelet/scaling pair from a Gevrey seed bump, the
multiresolution projection kernels, tensor-product wavelet expansions, and
the numerical certificates (orthonormality, vanishing moments, decay fits,
Parseval checks) that quantify each claimed property.
"""

__version__ = "0.1.0"  # read by the CLI report metadata

from .bump import BumpError, GevreyBump, build_bump
from .construction import (BellFunction, ConstructionError, WaveletSystem,
                           build_wavelet_system, decay_profile,
                           run_certificate_suite, scaling_modulus,
                           spectral_moments)
from .expansion import (CoefficientSet, ExpansionError, IndexWindow,
                        WaveletIndex, analyze, analyze_spectrum, bessel_gap,
                        parseval_check, parseval_from_coefficients,
                        synthesize_partial)
from .metrics import (DecayFit, FeasibleK, MetricsError, SeminormParams,
                      SequenceNormParams, max_feasible_k, seminorm_estimate,
                      sequence_norm, subexp_decay_fit)
from .numerics import (Grid1D, NumericsError, SampledFunction, SpectrumOnBand,
                       chirp_synthesis, forward_transform_values, inner_product,
                       integrate, norm_l2, pairing, synthesize,
                       synthesize_values)
from .projection import (PhiTailError, ProjectionError, ProjectionKernel,
                         UnresolvedLevelError, build_kernel,
                         kernel_decay_certificate, mra_convergence_experiment,
                         polynomial_reproduction, project)
