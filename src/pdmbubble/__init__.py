"""pdmbubble: quantization workbench for the position-dependent-mass bubble
Hamiltonian of superheated liquid helium."""

from .algebra import (
    AlgebraError,
    Coeff,
    DiffOp,
    DomainError,
    ExactnessError,
    OrderingParam,
    PolyX,
    PowerLawMass,
    diffop_apply_numeric,
    expand_sandwich,
)
from .helium import (
    DEFAULT_HE4,
    DerivedParams,
    EffectiveHamiltonianZ,
    PhysicalParams,
    PhysicsError,
    barrier_info,
    derived_params,
    effective_hamiltonian_z,
    potential_profile,
)
from .ordering import (
    OrderingSolution,
    kinetic_family_coefficient,
    match_orderings,
    named_orderings,
)
from .parsing import (
    ClassicalSymbol,
    ParseError,
    PPowerError,
    UnboundNameError,
    parse_hamiltonian,
    parse_params,
)
from .pointmass import (
    CoordinateMap,
    Measure,
    measure_of_map,
    pm_map,
    transform_diffop,
    unit_measure_restore,
)
from .spectral import Grid, SymTriMatrix, assemble, compare_spectra, eigenvalues
from .susy import (
    LadderOp,
    PartnerPotential,
    Superpotential,
    commutator_check,
    inverse_square_coefficient,
    ladder_operator,
    ladder_product,
    partner_potential,
    superpotential,
    z_space_operator,
)
from .weyl import (
    HermiticityReport,
    UnsupportedDegreeError,
    hermiticity_check,
    symmetrization_oracle,
    weyl_order,
)

__version__ = "0.1.0"
