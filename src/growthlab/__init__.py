"""Numerical toolkit for growth conditions at strict local minimizers.

Estimates and cross-checks three equivalent descriptions of polynomial
growth: the growth modulus itself, stability of minimizers under linear
tilts, and a Łojasiewicz-type bound on value gaps.  Ships a p-power
proximal point iteration with a rate audit and a finite-difference elliptic
tracking problem whose target-perturbation sensitivity realizes the same
equivalence in a PDE-constrained setting.

Import each name from the module that defines it; that module's
``__all__`` lists its public names.  ``import growthlab`` loads no
submodule, so a caller pays only for the layers it imports.
"""

__version__ = "0.1.0"
