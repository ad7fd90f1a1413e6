"""Pauli-basis Hamiltonian toolkit.

String algebra on symplectic bit masks, dense and matrix-free spectra,
promise-gap amplification via shifted tensor powers, the Pauli
energy-measurement game, and importance-sampled sparsification with its
operator-Chernoff failure bound.
"""

from .amplify import (
    AmplificationReport,
    AmplifyParams,
    amplification_bounds,
    amplify,
    exact_eigenvalue_map,
    game_promise_gap,
    pauli_norm_bound,
    verify_amplification,
)
from .game import (
    GameRound,
    GameTranscript,
    accept_prob_exact,
    play_round,
    sample_term,
    shot_chunks,
    shot_rng,
    simulate,
)
from .paulis import (
    CapacityError,
    DimensionMismatchError,
    Hamiltonian,
    HermiticityError,
    PauliParseError,
    PauliString,
    Phase,
    apply_polynomial,
    build_model,
    commutes,
    format_labels,
    format_pauli,
    hadamard_power,
    linear_combine,
    parse_labels,
    parse_pauli,
    pauli_1_norm,
    pauli_mul,
    random_local,
    tensor,
    tensor_power,
    term_distribution,
    xxzz_chain,
)
from .serialize import (
    SchemaError,
    load_hamiltonian,
    load_state,
    save_hamiltonian,
    save_state,
)
from .sparsify import (
    SparsifyParams,
    SparsifyReport,
    chernoff_bound,
    empirical_deviation,
    sample_restriction,
)
from .spectra import (
    SpectralResult,
    StateVector,
    expectation,
    extremal_eigs,
    matvec,
    operator_norm,
    pauli_expectation,
    to_dense,
)

__version__ = "0.1.0"
