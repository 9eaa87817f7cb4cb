"""Exact computer algebra for weight-zero Rota-Baxter operators on U_3.

The package represents linear operators on the algebra of 3x3
upper-triangular matrices with exact rational or polynomial coefficients,
verifies the defining identity symbolically, replays the classification's
case analysis through a built-in Buchberger engine, and certifies the family
catalog together with its consequences (nilpotency index 3, image dimension
bounds, closure under scaling and (anti)automorphism conjugation).  The modules are the library API: import the one you need
(``from rbu3 import catalog``); importing the package loads none of them.
"""

__version__ = "0.1.0"
