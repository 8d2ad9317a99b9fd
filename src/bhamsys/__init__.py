"""Hamiltonian dynamics on singular (b-symplectic) phase spaces.

The library models dissipative mechanics without leaving the Hamiltonian
formalism: instead of modifying the equations of motion, the symplectic form
acquires a controlled singularity along a critical hypersurface.  The
twisted model turns a linear potential into Stokes drag, with escape orbits
asymptotic to the critical set; an extended-phase-space time rescaling
produces viscous friction in arbitrary dimension; and a projectability test
shows these dynamics cannot arise from a cotangent lift.
"""

from .geometry import (DEGENERACY_TOL, PhaseState, PhaseStructure, StructureKind,
                       bivector_rank, compile_field, defining_function, evaluate_form,
                       hamiltonian_vector_field, poisson_bivector)
from .hamiltonians import (ExtendedKind, HamiltonianSpec, LogMomentumHamiltonian,
                           PotentialFamily, PotentialSpec, potential_gradient,
                           potential_value, second_order_residual)
from .integrate import (BlowupError, Event, EventKind, IntegratorConfig, Method,
                        Trajectory, integrate, integrate_batch,
                        merge_backward_forward, sign_preservation_check, step)
from .liftcheck import (LiftVerdict, Verdict, Witness, projectability_test,
                        toric_moment_field)
from .oracles import (OracleResult, OracleSource, classical_parabola,
                      damped_newton_reference, quadratic_tanh,
                      quadratic_tanh_constants, quadratic_tanh_momentum,
                      stokes_exact)
from .orbits import (OrbitClassification, OrbitKind, PortraitRecord,
                     SingularPeriodicOrbit, assemble_singular_periodic,
                     classify_orbit, level_set_residual, phase_portrait)
from .timescale import (RealTimeTrajectory, build_plain_extended, build_rescaled_extended,
                        friction_ode_residual, from_s_state, plain_initial_state,
                        reconstruct_real_time, rescaled_initial_state,
                        run_rescaled, run_s_coordinates, time_to_s,
                        to_s_coordinates, to_s_state)

__version__ = "0.1.0"
