"""Lattice-gas cellular automata: the paper's paradigm workload (section 2).

The subpackage implements, from scratch, the cellular-automaton models the
paper builds its engines for:

* :mod:`repro.lgca.bits` — packed bit encodings of site states (``D`` bits
  per site, the quantity the pin-constraint ``2D·P <= Π`` charges for).
* :mod:`repro.lgca.collision` — collision-rule tables with machine-checked
  mass and momentum conservation (the "physically plausible laws" of
  section 2).
* :mod:`repro.lgca.hpp` — the HPP model [Hardy, Pomeau, de Pazzis 1973]:
  4-velocity orthogonal lattice gas (anisotropic).
* :mod:`repro.lgca.fhp` — the FHP model [Frisch, Hasslacher, Pomeau 1986]:
  6-velocity hexagonal gas (FHP-I) and the 7-bit variant with a rest
  particle, which satisfy Navier–Stokes in the macroscopic limit.
* :mod:`repro.lgca.automaton` — the reference synchronous driver every
  engine simulator is verified against, with obstacles and boundaries.
* :mod:`repro.lgca.bitplane` — multi-spin coded kernels (64 sites per
  ``uint64`` word) with collision logic compiled from the verified tables.
* :mod:`repro.lgca.backends` — the kernel-backend registry through which
  the automaton, the engine simulators, and the CLI select ``reference``
  or ``bitplane`` stepping uniformly.
* :mod:`repro.lgca.observables` — coarse-grained density/momentum fields
  and the Reynolds-number scaling helpers of reference [10].
* :mod:`repro.lgca.flows` — initial conditions (uniform, shear, channel,
  cylinder wake) used by examples and benches.
* :mod:`repro.lgca.wolfram` — 1-D binary cellular automata, the workload
  of the Steiglitz–Morita one-dimensional pipeline chip (reference [16]).
* :mod:`repro.lgca.ndim` — d-dimensional orthogonal gases (the paper's
  "extensions to three-dimensional gases" remark, any d).
* :mod:`repro.lgca.diagnostics` — kinetic measurements: collision rate,
  shear viscosity by wave decay, sound speed by standing-wave
  dispersion, each compared against Boltzmann theory.
"""

from repro.lgca.bits import (
    popcount,
    direction_count,
    pack_channels,
    unpack_channels,
)
from repro.lgca.collision import (
    CollisionTable,
    ConservationError,
    verify_conservation,
)
from repro.lgca.hpp import HPPModel, hpp_collision_table
from repro.lgca.fhp import (
    FHPModel,
    fhp6_collision_tables,
    fhp7_collision_tables,
    fhp_saturated_tables,
)
from repro.lgca.diagnostics import (
    collision_rate,
    channel_occupation,
    measure_shear_viscosity,
    ViscosityMeasurement,
    measure_sound_speed,
    SoundSpeedMeasurement,
)
from repro.lgca.ndim import NDHPPModel, ndhpp_collision_table, ndhpp_velocities
from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.lgca.backends import (
    Backend,
    KernelStepper,
    available_backends,
    get_backend,
    make_stepper,
    register_backend,
)
from repro.lgca.bitplane import BitplaneKernel, pack_state, unpack_state
from repro.lgca.observables import (
    density_field,
    momentum_field,
    total_mass,
    total_momentum,
    conserved_totals,
    coarse_grain,
    mean_velocity_field,
    reynolds_number,
)
from repro.lgca.flows import (
    uniform_random_state,
    shear_flow_state,
    channel_flow_state,
    density_pulse_state,
    cylinder_obstacle,
    plate_obstacle,
)
from repro.lgca.wolfram import ElementaryCA, ParityCA

__all__ = [
    "popcount",
    "direction_count",
    "pack_channels",
    "unpack_channels",
    "CollisionTable",
    "ConservationError",
    "verify_conservation",
    "HPPModel",
    "hpp_collision_table",
    "FHPModel",
    "fhp6_collision_tables",
    "fhp7_collision_tables",
    "fhp_saturated_tables",
    "collision_rate",
    "channel_occupation",
    "measure_shear_viscosity",
    "ViscosityMeasurement",
    "measure_sound_speed",
    "SoundSpeedMeasurement",
    "NDHPPModel",
    "ndhpp_collision_table",
    "ndhpp_velocities",
    "LatticeGasAutomaton",
    "ObstacleMap",
    "Backend",
    "KernelStepper",
    "available_backends",
    "get_backend",
    "make_stepper",
    "register_backend",
    "BitplaneKernel",
    "pack_state",
    "unpack_state",
    "density_field",
    "momentum_field",
    "total_mass",
    "total_momentum",
    "conserved_totals",
    "coarse_grain",
    "mean_velocity_field",
    "reynolds_number",
    "uniform_random_state",
    "shear_flow_state",
    "channel_flow_state",
    "density_pulse_state",
    "cylinder_obstacle",
    "plate_obstacle",
    "ElementaryCA",
    "ParityCA",
]
