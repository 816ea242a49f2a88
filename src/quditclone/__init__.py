"""quditclone: simulate and verify encrypted cloning of qudit states.

Desk-scale numerics for any dimension d >= 2 and party count n >= 1: run
the protocol matrix-free on state vectors, build the dense encryption and
decryption unitaries as test oracles, check every supporting operator
identity, and export the gate-count and autocorrelation tables.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL,
    OPERATOR_DIM_CAP,
    STATE_AMPLITUDE_CAP,
    IdentityCheck,
    Register,
    SizeCapError,
    StateVector,
    is_unitary,
    kron_all,
    max_abs_diff,
)
from .gates import (
    fourier,
    phase_z,
    shift_x,
    x_power,
    z_power,
)
from .cazac import (
    ChuSequence,
    autocorr2d,
    chu,
    gauss_sum,
    periodic_autocorr,
    zadoff_chu,
)
from .protocol import (
    IdentitySuiteReport,
    ProtocolParams,
    ProtocolReport,
    c_gate,
    dec_projector_sum,
    decryption_scores,
    exp_generalization,
    pauli_product,
    random_state,
    run_protocol,
    share_marginals,
    u_dec_dense,
    u_enc,
    v_of_p,
    verify_identities,
)
from .circuits import (
    Circuit,
    GateCounts,
    GateOp,
    apply_circuit,
    build_enc_factored,
    build_tbar,
    build_tkl,
    build_udec_circuit,
    build_udec_factored,
    build_vpx_circuit,
    build_vpz_circuit,
    circuit_to_unitary,
    counts_table,
    gate_counts,
    q_entries,
    q_gate,
    tally_gates,
)

# the public API: every global that is neither private nor a submodule
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
