"""Property tests: both decryption paths of a run agree on every report."""

from hypothesis import given, settings, strategies as st

from quditclone import ProtocolParams, run_protocol


@st.composite
def protocol_cases(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    target = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return ProtocolParams(d, n, target_party=target), seed


@settings(max_examples=40, deadline=None, database=None)
@given(protocol_cases())
def test_decrypt_paths_agree(case):
    params, seed = case
    formula = run_protocol(params, seed=seed)
    circuit = run_protocol(params, seed=seed, decrypt_with_circuit=True)
    assert abs(formula.decryption_fidelity - circuit.decryption_fidelity) < 1e-12
    assert formula.decryption_ok
    pairs = [r["pair"] for r in formula.bell_residuals]
    assert pairs == [r["pair"] for r in circuit.bell_residuals]
    for a, b in zip(formula.bell_residuals, circuit.bell_residuals):
        assert abs(a["fidelity"] - b["fidelity"]) < 1e-12, a["pair"]
