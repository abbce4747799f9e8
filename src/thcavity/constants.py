"""Physical constants (CODATA 2018), SI units.

Hard-coded rather than pulled from scipy so that derived numbers are pinned to a
known constants vintage and cannot drift with a scipy upgrade.
"""

# speed of light in vacuum, m/s (exact)
C = 299792458.0

# vacuum magnetic permeability, N/A^2
MU_0 = 1.25663706212e-6

# reduced Planck constant, J*s
HBAR = 1.054571817e-34
