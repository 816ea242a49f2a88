"""The public API is ``quditclone.__all__``: the names the CLI, the README
and the release criteria use, and nothing else."""

from types import ModuleType

import quditclone
from quditclone import gates, linalg, protocol

PUBLIC = {
    # linalg
    "DEFAULT_TOL", "OPERATOR_DIM_CAP", "STATE_AMPLITUDE_CAP", "IdentityCheck", "Register",
    "SizeCapError", "StateVector", "is_unitary", "kron_all", "max_abs_diff",
    # gates
    "fourier", "phase_z", "shift_x", "x_power", "z_power",
    # cazac
    "ChuSequence", "autocorr2d", "chu", "gauss_sum", "periodic_autocorr", "zadoff_chu",
    # protocol
    "IdentitySuiteReport", "ProtocolParams", "ProtocolReport", "c_gate", "dec_projector_sum",
    "decryption_scores", "exp_generalization", "pauli_product", "random_state",
    "run_protocol", "share_marginals", "u_dec_dense", "u_enc", "v_of_p", "verify_identities",
    # circuits
    "Circuit", "GateCounts", "GateOp", "apply_circuit", "build_enc_factored", "build_tbar",
    "build_tkl", "build_udec_circuit", "build_udec_factored", "build_vpx_circuit",
    "build_vpz_circuit", "circuit_to_unitary", "counts_table", "gate_counts", "q_entries",
    "q_gate", "tally_gates",
}


def test_all_is_the_pinned_api():
    assert len(PUBLIC) == 53
    assert sorted(quditclone.__all__) == sorted(PUBLIC)


def test_star_import_binds_the_api_and_no_submodule():
    namespace = {}
    exec("from quditclone import *", namespace)
    namespace.pop("__builtins__")
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
    assert set(namespace) == PUBLIC


def test_one_check_result_type_and_no_test_only_helpers():
    assert protocol.IdentityCheck is linalg.IdentityCheck is quditclone.IdentityCheck
    assert type(quditclone.is_unitary(quditclone.fourier(3))) is linalg.IdentityCheck
    for module, name in ((linalg, "UnitaryCheck"), (linalg, "kron"),
                         (gates, "swap_gate"), (protocol, "protocol_register")):
        assert not hasattr(module, name), name
