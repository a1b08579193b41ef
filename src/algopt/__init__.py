"""Optimal control on almost Lie algebroid charts.

Trajectory simulation, deformation (homotopy) generation and checking,
parallel transport, and construction/verification of Pontryagin extremals,
with the zero-anchor so(3) bang-bang problem and the reduced Atiyah-chart
energy problem as built-in scenarios.
"""

from .core import (ChartAlgebroid, Section, atiyah_trivial, hamiltonian_vector_field,
                   lie_algebra, product_with_time, so3_algebra, so3_structure,
                   tangent_bundle, tangent_lift_section, validate_anchor_morphism,
                   validate_skew)
from .control import (Box, ControlSignal, ControlSystem, FiniteSet, Trajectory, extend_system,
                      pairing_drift, simulate_trajectory, transport_B, transport_Bbar)
from .errors import (AdmissibilityWarning, AlgoptError, ChatteringError,
                     CompositionError, ConfigError, IntegrationDivergedError,
                     UnsupportedDimensionError)
from .numerics import TimeGrid, finite_difference_jacobian, integrate, integrate_segmented
from .paths import (EPath, HomotopyField, admissibility_residual, compose_paths,
                    generate_infinitesimal_homotopy, homotopy_residual, null_path,
                    reparameterize_unit, shrink_homotopy)
from .pmp import (CostatePath, ExtremalAudit, PmpFlow, TimeDependentControlSystem,
                  VariationSymbol, autonomize, cone_support_check, develop_to_group,
                  hamiltonian, integrate_pmp_flow, make_needle_context,
                  maximize_hamiltonian, needle_vector, needle_vectors, sample_symbols,
                  shoot_endpoint, time_dependence_audit, verify_extremal)
from .scenarios import (ScenarioResult, WongFixture, default_config, run_scenario,
                        scenario_classical, scenario_so3_bang_bang, scenario_wong)

__version__ = "0.1.0"
