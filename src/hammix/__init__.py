"""Exact verification toolkit for weighted-Hamming Lipschitz machinery.

Everything upstream of exp() is exact rational arithmetic: distances,
the recursive psi functional, linear programs over 1-Lipschitz polytopes
(with strong-duality certificates), mixing coefficients of dependent
measures, and martingale difference profiles.  Floats appear only in the
operator norm of the mixing matrix and the final tail-bound evaluation.
Import from the submodules (``hammix.words``, ``hammix.psi``, ...).
"""

__version__ = "0.1.0"
