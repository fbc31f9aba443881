"""levyflow: stochastic multiscale simulation engine.

From symbols of jump processes and their pseudo-differential operators to
(a) a particle-level invasion model with switchable noise laws and (b) a
macroscopic stochastic fractional reaction-diffusion system, with Monte
Carlo ensembles.
"""

__version__ = "0.1.0"
