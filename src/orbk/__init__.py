"""Computational checks for Bergman density asymptotics on quotient orbifolds."""

from .errors import (
    IllConditionedBasisError,
    ModelSpecError,
    NoiseFloorError,
    OrbkError,
    ParameterError,
    QuadratureError,
    UnsupportedModelError,
)
from .groups import GroupAction, invariant_counts, invariant_monomials
from .models import OrbifoldModel, build_model
from .quadrature import QuadratureRule, integrate_radial, monomial_norm_closed_form
from .sections import (
    RadialBump,
    SectionSpace,
    build_perturbed_space,
    build_section_space,
)
from .bergman import density, football_density_closed_form, metric_pullback_deviation
from .asymptotics import (
    character_sum_bound,
    fit_decay_rate,
    fit_expansion,
    lower_bound_scan,
    pair_with_test_function,
    recover_potential,
)
from .index import b_coefficient, rrk_euler_characteristic
from .localmodel import ModelGrid, apply_R, check_identities, phase_critical_data

__version__ = "0.1.0"
