"""Exact verification toolkit for weighted-Hamming Lipschitz machinery.

Distances, the recursive psi functional, linear programs over
1-Lipschitz polytopes (with strong-duality certificates), mixing
coefficients of dependent measures and martingale difference profiles
are exact rational arithmetic.  Floats enter only on the way to the tail
bounds.  The operator norm of the mixing matrix is a certified upper
bound, rounded up; the float of the exact lip^2 ||w||^2 and its product
with the norm's square, the float of the exact d_squared, the exponent
and exp() round to nearest.  So every tail bound is an estimate, not a
certified bound.
Import from the submodules (``hammix.words``, ``hammix.psi``, ...).
"""

__version__ = "0.1.0"
