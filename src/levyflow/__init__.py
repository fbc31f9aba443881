"""levyflow: stochastic multiscale simulation engine.

From symbols of jump processes and their pseudo-differential operators to
(a) a particle-level invasion model with switchable noise laws and (b) a
macroscopic stochastic fractional reaction-diffusion system, with Monte
Carlo ensembles and verifiable numerical property checks.
"""

__version__ = "0.1.0"

from .drivers import (
    CauchyModulatedNoise,
    GaussianNoise,
    ProtonIndexDriver,
    QWienerSpec,
    RngStream,
    StreamChunk,
    SwitchingNoise,
    draw_noise,
    sample_qwiener_increment,
)
from .ensemble import EnsembleConfig, EnsembleStats, run_ensemble
from .fracops import (
    FracLapOperator,
    alpha_resolvent_holder_check,
    fourier_multiply,
    frac_constant,
    multiplier_lipschitz_check,
    spectral_oracle,
    symbol_multiplier,
)
from .grids import Grid, GridField
from .macro import MacroConfig, MacroState, macro_init, macro_step, run_macro
from .micro import (
    MicroConfig,
    MicroState,
    deposit_fields,
    micro_init,
    micro_step,
    run_micro,
    survival_fraction,
)
from .symbols import (
    DiscreteJumpLaw,
    ScaledSymbol,
    ShiftedSymbol,
    StableSymbol,
    TripleSymbol,
    driven_symbol,
    generator_symbol_table,
    growth_bound_constant,
)
