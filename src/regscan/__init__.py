"""regscan: local regularity analysis of discretized velocity fields.

The package measures weak-Lebesgue norms, scaling-invariant local
quantities, and nested-cube singularity localizations of sampled
incompressible velocity fields, and verifies the local pressure
decomposition and energy balance they rest on.

Names are imported from their modules, as in ``from regscan.lorentz
import weak_norm``; the package itself defines only ``__version__``.
"""

__version__ = "0.1.0"
