import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quditclone
from quditclone.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d-range", "2..3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [r["d"] for r in data["results"]] == [2, 3]
    assert data["version"] and data["tolerance"] == 1e-10


def test_verify_single_dim_reproduces_qubit_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d-range", "2..2")
    assert code == 0
    assert json.loads(out)["results"][0]["d"] == 2


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d-range", "2..2", "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("command", [("verify", "--d-range", "2..2"),
                                     ("run", "--d", "2", "--n", "2")])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_is_config_error(capsys, command, tol):
    # a negative or NaN tolerance used to fail as a verification (exit 1),
    # an infinite one to pass and print non-standard JSON `Infinity`
    code, out, err = run_cli(capsys, *command, "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --tol must be a finite number >= 0")


def test_run_multi_share_passes(capsys):
    code, out, _ = run_cli(capsys, "run", "--d", "3", "--n", "2", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["decryption_fidelity"] >= 1 - 1e-10
    assert max(data["marginals"]) <= 1e-10
    assert data["passed"] is True
    assert "timings_ms" not in data


def test_run_single_share_reports_leak(capsys):
    # one share cannot hide the data state; decryption still succeeds
    code, out, _ = run_cli(capsys, "run", "--d", "2", "--n", "1", "--seed", "1")
    assert code == 1
    data = json.loads(out)
    assert data["decryption_fidelity"] >= 1 - 1e-10
    assert max(data["marginals"]) > 1e-3


def test_run_circuit_flag_matches_dense(capsys):
    code, dense, _ = run_cli(capsys, "run", "--d", "3", "--n", "2", "--seed", "7")
    assert code == 0
    code, circ, _ = run_cli(
        capsys, "run", "--d", "3", "--n", "2", "--seed", "7", "--circuit"
    )
    assert code == 0
    a, b = json.loads(dense), json.loads(circ)
    assert a["used_circuit"] is False and b["used_circuit"] is True
    assert b["decryption_fidelity"] >= 1 - 1e-10
    assert a["marginals"] == pytest.approx(b["marginals"], abs=1e-12)
    assert a["decryption_fidelity"] == pytest.approx(b["decryption_fidelity"], abs=1e-12)
    assert [r["pair"] for r in a["bell_residuals"]] == [r["pair"] for r in b["bell_residuals"]]
    assert [r["fidelity"] for r in a["bell_residuals"]] == pytest.approx(
        [r["fidelity"] for r in b["bell_residuals"]], abs=1e-12
    )


def test_run_deterministic_output(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "run", "--d", "3", "--n", "2", "--seed", "5",
                   "--out", str(f1))[0] == 0
    assert run_cli(capsys, "run", "--d", "3", "--n", "2", "--seed", "5",
                   "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_run_timings_flag(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--d", "2", "--n", "2", "--seed", "0", "--timings"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["timings_ms"]) == {"prepare", "encrypt", "marginals",
                                       "decrypt", "verify"}


def test_run_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "run", "--d", "4", "--n", "6")
    assert code == 2
    assert "cap" in err and "d=4" in err


def test_out_of_memory_is_config_error(monkeypatch, capsys):
    from quditclone import protocol

    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(protocol, "run_protocol", exhaust)
    code, out, err = run_cli(capsys, "run", "--d", "3", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 64.0 GiB\n"


def test_verify_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "--d-range", "8..8", "--n", "4")
    assert code == 2
    assert "cap" in err


def test_verify_refuses_whole_range_before_any_check(monkeypatch, capsys):
    from quditclone import protocol

    def check_ran(*args):
        raise AssertionError("an identity check ran")

    monkeypatch.setattr(protocol, "_check_ricochet", check_ran)
    code, out, err = run_cli(capsys, "verify", "--d-range", "2..17")  # 17^3 > 4096
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_verify_refuses_cubic_suite_objects_at_one_party(monkeypatch, capsys):
    from quditclone import protocol

    def check_ran(*args):
        raise AssertionError("an identity check ran")

    # the n = 1 oracles are 17^2-dim, but the suite's d^2 x d^2 Bell-table
    # products and d^3-amplitude relay states are held to d^3 <= 4096
    monkeypatch.setattr(protocol, "_check_ricochet", check_ran)
    code, out, err = run_cli(capsys, "verify", "--d-range", "17", "--n", "1")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_huge_range_is_refused_without_listing_it(capsys):
    from quditclone.cli import _parse_range

    # checked first: a parser that lists its range would allocate 10^9 entries below
    assert isinstance(_parse_range("2..3"), range)
    assert len(_parse_range("2..1000000000")) == 999_999_999
    code, out, err = run_cli(capsys, "verify", "--d-range", "2..1000000000")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_counts_refuses_dimension_over_cap(capsys):
    code, out, err = run_cli(capsys, "counts", "--d-range", "4097..4097")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_run_beyond_the_old_operator_bound(capsys):
    # the 17^5-amplitude state fits, though a 17^3-dim operator would not
    for extra in ((), ("--circuit",)):
        code, out, _ = run_cli(capsys, "run", "--d", "17", "--n", "2", *extra)
        assert code == 0
        assert json.loads(out)["decryption_fidelity"] >= 1 - 1e-10
    code, _, _ = run_cli(capsys, "circuit-dump", "udec", "--d", "17", "--n", "2")
    assert code == 0


def test_run_beyond_the_old_pair_bound(capsys):
    # d^2 > 4096, but the 65^3-amplitude state fits; exit 1 comes from the
    # single share's marginal, not from decryption
    for extra in ((), ("--circuit",)):
        code, out, _ = run_cli(capsys, "run", "--d", "65", "--n", "1", *extra)
        assert code == 1
        assert json.loads(out)["decryption_fidelity"] >= 1 - 1e-10


def test_circuit_dump_refuses_what_a_run_cannot_hold(capsys):
    for builder in ("vpz", "vpx", "udec"):
        code, out, err = run_cli(capsys, "circuit-dump", builder, "--d", "2", "--n", "11")
        assert code == 2
        assert out == ""
        assert "cap" in err


def test_run_huge_party_count_is_cap_error(capsys):
    code, out, err = run_cli(capsys, "run", "--d", "3", "--n", "10000")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_counts_refuses_empty_party_set(capsys):
    # an empty set used to print a bare header and exit 0, even past the d cap
    for argv in (("--n-set", ","), ("--n-set", ""), ("--n-set", ",", "--format", "json"),
                 ("--d-range", "5000..5001", "--n-set", ",")):
        code, out, err = run_cli(capsys, "counts", *argv)
        assert code == 2
        assert out == ""
        assert "empty set" in err


def test_counts_default_sweep(tmp_path, capsys):
    out_file = tmp_path / "counts.csv"
    code, _, _ = run_cli(capsys, "counts", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 28
    assert lines[0] == "d,n,NE1Q,NE2Q,ND1Q,ND2Q"
    assert "3,2,8,8,56,393" in lines
    assert "2,2,6,8,14,81" in lines


def test_counts_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "counts", "--d-range", "2..3", "--n-set", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[1] == {"d": 3, "n": 2, "NE1Q": 8, "NE2Q": 8, "ND1Q": 56, "ND2Q": 393}


def test_autocorr_rows(capsys):
    code, out, _ = run_cli(capsys, "autocorr", "--d", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,magnitude"
    assert len(lines) == 17
    assert lines[1].startswith("0,0,")
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0)
    for line in lines[2:]:
        assert float(line.split(",")[2]) <= 1e-10


def test_autocorr_d2(capsys):
    code, out, _ = run_cli(capsys, "autocorr", "--d", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_autocorr_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "autocorr", "--d", "9", "--out", str(f1))
    run_cli(capsys, "autocorr", "--d", "9", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    assert len(f1.read_text().strip().split("\n")) == 82


def test_autocorr_refuses_a_grid_over_the_state_cap(capsys):
    # both formats list d^2 rows: 2049^2 is over the state cap, refused
    # before anything is computed
    import tracemalloc

    tracemalloc.start()
    try:
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, "autocorr", "--d", "2049", "--format", fmt)
            assert code == 2
            assert out == ""
            assert "cap" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _one_shot_table(command, fmt, argv):
    """A table as one string, by the formulas the streamed writer replaced."""
    from quditclone import autocorr2d, gate_counts

    if command == "counts":
        d_range = argv[argv.index("--d-range") + 1] if "--d-range" in argv else "2..10"
        lo, _, hi = d_range.partition("..")
        n_set = argv[argv.index("--n-set") + 1] if "--n-set" in argv else "2,5,10"
        fields = ("d", "n", "NE1Q", "NE2Q", "ND1Q", "ND2Q")
        counts = [gate_counts(d, int(n)) for d in range(int(lo), int(hi) + 1)
                  for n in n_set.split(",")]
        rows = [(c.d, c.n, c.ne1q, c.ne2q, c.nd1q, c.nd2q) for c in counts]
        extra, json_rows = {}, rows
    else:
        d = int(argv[argv.index("--d") + 1])
        grid = autocorr2d(d)
        fields = ("m", "n", "magnitude")
        rows = [(m, n, grid[m, n]) for m in range(d) for n in range(d)]
        extra, json_rows = {"d": d}, [(m, n, float(x)) for m, n, x in rows]
    if fmt == "csv":
        lines = [",".join(fields)] + [",".join(str(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "version": quditclone.__version__,
        **extra,
        "rows": [dict(zip(fields, row)) for row in json_rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


TABLES = [
    ("counts",),
    ("counts", "--d-range", "2..3", "--n-set", "2"),
    ("autocorr", "--d", "2"),
    ("autocorr", "--d", "3"),
    ("autocorr", "--d", "9"),
    ("autocorr", "--d", "96"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", TABLES, ids=" ".join)
def test_streamed_tables_equal_the_one_shot_text(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _one_shot_table(argv[0], fmt, argv)


@pytest.mark.parametrize("fields,rows", [
    (("d", "n", "NE1Q", "NE2Q", "ND1Q", "ND2Q"), [(2, 2, 6, 8, 10, 12), (10 ** 20, 5, 0, -1, 3, 4)]),
    (("m", "n", "magnitude"), [(0, 0, 1.0), (0, 1, 1e-300), (3, 2, 0.1), (1, 1, 1e16), (2, 0, -0.0)]),
], ids=["counts", "autocorr"])
def test_json_row_template_writes_what_json_dumps_writes(fields, rows):
    from quditclone.cli import _json_pieces

    payload = {"d": 5, "version": quditclone.__version__}
    for count in range(len(rows) + 1):
        for size in (1, 2):
            batches = [rows[:count][i:i + size] for i in range(0, count, size)]
            got = "".join(_json_pieces(payload, fields, iter(batches)))
            table = [dict(zip(fields, row)) for row in rows[:count]]
            want = json.dumps({**payload, "rows": table}, indent=2, sort_keys=True) + "\n"
            assert got == want, (count, size)


def test_autocorr_csv_peak_row(capsys):
    code, out, _ = run_cli(capsys, "autocorr", "--d", "3")
    lines = out.split("\n")
    assert code == 0 and lines[-1] == ""
    assert lines[0] == "m,n,magnitude"
    assert len(lines[:-1]) == 10
    assert lines[1] == "0,0,1.0"


@pytest.mark.parametrize("argv", [
    ("verify", "--d-range", "2..3"),
    ("verify", "--d-range", "2", "--tol", "1e-30"),
    ("run", "--d", "3", "--n", "2", "--seed", "7"),
    ("run", "--d", "2", "--n", "2", "--circuit"),
    ("counts",),
    ("counts", "--format", "json"),
    ("autocorr", "--d", "9"),
    ("autocorr", "--d", "9", "--format", "json"),
    ("circuit-dump", "udec", "--d", "3", "--n", "2"),
], ids=" ".join)
def test_out_file_holds_the_stdout_bytes(tmp_path, argv):
    # stdout is looked up when written, so a redirection by the caller holds
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    out_file = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()) as unused:
        assert main([*argv, "--out", str(out_file)]) == code
    assert unused.getvalue() == ""
    assert out_file.read_bytes() == stdout.getvalue().encode()


@pytest.mark.parametrize("argv", [
    ("autocorr", "--d", "2049"),
    ("autocorr", "--d", "2049", "--format", "json"),
    ("counts", "--n-set", ","),
    ("counts", "--d-range", "4096..4097"),
    ("verify", "--d-range", "2", "--tol", "-1"),
], ids=" ".join)
def test_a_refused_request_writes_nothing(tmp_path, capsys, argv):
    out_file = tmp_path / "out"
    for extra in ((), ("--out", str(out_file))):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_autocorr_streams_its_grid(tmp_path, fmt):
    # no step holds the d^2 rows or the whole text: the traced peak stays
    # within 64 bytes per grid entry (the grid itself takes 8)
    import tracemalloc

    d, out_file = 128, tmp_path / "grid"
    main(["autocorr", "--d", "2", "--format", fmt, "--out", str(out_file)])  # lazy set-up
    tracemalloc.start()
    try:
        code = main(["autocorr", "--d", str(d), "--format", fmt, "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 64 * d * d
    text = out_file.read_text()
    rows = text.count("\n") - 1 if fmt == "csv" else len(json.loads(text)["rows"])
    assert rows == d * d


def test_circuit_dump(capsys):
    code, out, _ = run_cli(capsys, "circuit-dump", "udec", "--d", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["register"]["wires"] == ["S1", "N1", "N2"]
    assert all(
        set(op) == {"kind", "params", "targets", "controls", "control_levels"}
        for op in data["ops"]
    )


def test_circuit_dump_writes_the_q_gate_phases(capsys):
    # the vpz and vpx dumps carry the diag gate's phases, arg(q_k), exactly
    from quditclone.circuits import q_entries

    for builder in ("vpz", "vpx"):
        code, out, _ = run_cli(capsys, "circuit-dump", builder, "--d", "3", "--n", "2")
        assert code == 0
        (diag,) = [op for op in json.loads(out)["ops"] if op["kind"] == "diag"]
        assert diag["params"]["phases"] == np.angle(q_entries(3)).tolist(), builder


def test_bad_range_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--d-range", "5..2")
    assert code == 2
    assert "error" in err


def test_unwritable_output_is_config_error(tmp_path, capsys):
    for argv in (("counts",), ("autocorr", "--d", "3", "--format", "json"),
                 ("run", "--d", "2", "--n", "2")):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_one_parser_serves_every_call(capsys):
    # main reuses one parser; each call must print what a fresh process
    # prints for the same argv, with no flag carried over from the last
    sequence = [
        ("run", "--d", "3", "--n", "2", "--seed", "4", "--circuit", "--timings"),
        ("run", "--d", "3", "--n", "2", "--seed", "4"),
        ("run", "--d", "3"),
        ("verify", "--d-range", "2..3"),
        ("circuit-dump", "udec", "--d", "3", "--n", "2"),
    ]
    src = str(Path(quditclone.__file__).parents[1])
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "quditclone", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert code == proc.returncode, argv
        assert captured.err == proc.stderr, argv
        if "--timings" in argv:
            # wall-clock values differ between processes; the rest may not
            got, want = json.loads(captured.out), json.loads(proc.stdout)
            assert set(got.pop("timings_ms")) == set(want.pop("timings_ms"))
            assert got == want and got["used_circuit"] is True
        else:
            assert captured.out == proc.stdout, argv
    assert code == 0


def test_package_and_a_run_load_no_scipy():
    # numpy is the only runtime dependency. This process has imported scipy
    # for the test oracles, so the check runs in a fresh interpreter.
    script = """
import contextlib, io, json, sys
import quditclone, quditclone.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
on_import = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = quditclone.cli.main(["run", "--d", "3", "--n", "2"])
print(json.dumps([on_import, code, scipy_modules()]))
"""
    src = str(Path(quditclone.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0, []]
