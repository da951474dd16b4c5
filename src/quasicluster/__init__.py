"""Exact symbolic engine for quasi-cluster algebras of non-orientable marked
surfaces: partitioned quivers, quasi-triangulations, the four local mutation
rules, exact Laurent arithmetic and exchange-graph enumeration."""

from .laurent import (EXPONENT_LIMIT, Context, DenominatorVector,
                      ExponentOverflow, LaurentForm, LaurentViolation,
                      NotDivisible, Polynomial, denominator_vector)
from .pquiver import (AmbiguousClosure, Arrow, ClassificationError,
                      PartitionedQuiver, Unclassifiable, Vertex,
                      VertexClassification)
from .surface import (MAX_FIXTURE_SIZE, InvalidTriangulation,
                      NonTriangulable, NotFlippable,
                      QuasiTriangulation, SurfaceSignature, Triangle,
                      annulus_crosscap, arc_count,
                      euler_characteristic_nonorientable, mobius_fan,
                      mobius_three_arc, named_fixture, polygon_fan,
                      three_boundary)
from .algebra import (ExchangeGraph, LimitExceeded, Seed, SeedMismatch,
                      check_laurent_positive, explore, initial_seed,
                      mobius_variable_count, mutate_seed,
                      polygon_variable_count, unistructurality_scan)
from .cover import DoubleCover, QuasiArcPresent, lift

__all__ = [name for name in dir() if not name.startswith("_")]
