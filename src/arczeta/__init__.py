"""Exact zeta-series computations for hypersurfaces and castling pairs.

The package has three layers: exact coefficient arithmetic (Laurent
polynomials in L, spectra in fractional powers of t, factored rational
series in T), brute-force realization of series coefficients as arc and
congruence counts over small primes, and the transfer operators that move
zeta data between castling partners.  Everything is integer or Fraction
arithmetic; nothing here ever rounds.
"""

# series (with motive) first: compiling its source on top of numpy, which arcs
# imports, raised the peak RSS of a fresh process by about 0.2 MB.
from .series import (RationalSeries, SeriesError, TruncatedSeries, series_equal)
from .arcs import (ArcConstraint, ArcError, CountPlan, PolySystem, count_arcs,
                   count_pair, count_stratum, estimate_work, homogeneity_check,
                   igusa_coeffs, padic_solution_counts, zeta_coeffs_from_counts)
from .castling import (BFunction, CastlingDatum, CastlingError, castle_bfunction,
                       castle_igusa, castle_local_zeta, castle_milnor,
                       castle_spectrum, castle_zeta, castle_zeta_numeric,
                       counting_series, globalize_by_degree, localize_by_degree,
                       verify_castling)
from .motive import (LaurentError, LaurentMotive, Permutation, RationalMotive,
                     fibration_factor, parse_laurent, partition_weight_sum,
                     sl_class, z_w_class, zw_sum_identity)
from .polynomials import Poly, PolyError, parse_poly, parse_system
from .resolution import (Component, ResolutionDatum, ResolutionError, Stratum,
                         hsp_of_f, milnor_fiber, zeta_from_resolution)
from .spectrum import Spectrum, SpectrumError, parse_spectrum

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
