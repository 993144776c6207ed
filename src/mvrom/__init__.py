"""Reduced-order models of nonlinear dynamics: VAEs with manifold latent
spaces, an exact Cole-Hopf Burgers solver, and linear baselines (DMD/POD)."""

# numpy loads numpy.random on first use, and every run draws from it (data,
# initial weights, noise).  Loaded here, it comes before a run allocates
# anything; loaded inside a run's first set-up, it leaves the heap so that
# each later klein-train set-up takes about 280 page faults instead of 75.
import numpy.random  # noqa: F401

__version__ = "0.1.0"
