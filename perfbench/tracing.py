"""Spans around calls into quditclone's layers, recorded from outside the program.

``Tracer.install`` rebinds each traced function, in every quditclone
module namespace that holds it, to a wrapper that records a span; callers
that look the function up at call time (``protocol.u_enc``,
``cazac.chu``, a ``from .circuits import ...`` inside a function) then go
through the wrapper. ``uninstall`` restores the originals. Spans are kept
in memory and written out when the benchmark ends.

The traced functions are the public functions of ``protocol``,
``circuits``, ``linalg``, ``gates`` and ``cazac``, and ``cli.main``: the
other ``cli`` functions are dispatch targets inside that layer, so
``cli.main``'s self time is the CLI's own cost (argparse, JSON).
"""

import gzip
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "quditclone"
LAYERS = ("cli", "protocol", "circuits", "linalg", "gates", "cazac")
STAGES = ("prepare", "encrypt", "marginals", "decrypt", "verify")

# Per-layer metrics, per cycle of the workload, with their units. The
# end-to-end metric each should move is listed in perfbench/README.md.
UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "protocol.run_protocol.ms": "ms",
    "protocol.u_enc.ms": "ms",
    "protocol.v_of_p.calls": "count",
    "protocol.v_of_p.self_ms": "ms",
    "protocol.u_dec_dense.ms": "ms",
    "protocol.dec_projector_sum.ms": "ms",
    **{f"protocol.stage.{s}_ms": "ms" for s in STAGES},
    "protocol.verify_identities.ms": "ms",
    "circuits.build_udec_circuit.ms": "ms",
    "circuits.circuit_to_unitary.ms": "ms",
    "circuits.circuit_to_unitary.gates": "count",
    "linalg.is_unitary.calls": "count",
    "linalg.is_unitary.ms": "ms",
    "linalg.is_unitary.flop_computed": "flop",
    "linalg.embed_apply.ms": "ms",
    "linalg.embed_apply.flop_computed": "flop",
    "linalg.reduced_density.ms": "ms",
    "linalg.product_state.ms": "ms",
    "linalg.dense_op_mb": "MiB",
    "cazac.chu.calls": "count",
    "cazac.chu.ms": "ms",
    "cazac.autocorr2d.ms": "ms",
    "gates.calls": "count",
    "gates.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _largest_square(args, result) -> int:
    """Bytes of the largest square 2-D array among a call's arguments and result."""
    best = 0
    for a in (*args, result):
        if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]:
            best = max(best, a.nbytes)
    return best


def _is_unitary_probe(args, kwargs, result):
    dim = np.shape(_arg(args, kwargs, 0, "m"))[0]
    return {"flop": 8 * dim**3, "op_bytes": _largest_square(args, result)}


def _embed_apply_probe(args, kwargs, result):
    state, op = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "op")
    flop = 8 * np.shape(op)[0] * state.register.dim
    return {"flop": flop, "op_bytes": _largest_square(args, result)}


def _linalg_probe(args, kwargs, result):
    return {"op_bytes": _largest_square(args, result)}


# Counters measured at the call boundary, from arguments and results.
PROBES = {
    "linalg.is_unitary": _is_unitary_probe,
    "linalg.embed_apply": _embed_apply_probe,
    "circuits.circuit_to_unitary": lambda a, k, r: {"gates": len(_arg(a, k, 0, "circuit").ops)},
    "protocol.run_protocol": lambda a, k, r: {"stages": dict(r.timings_ms)},
}


def traced_functions() -> dict:
    """Span name -> original function, for every traced function."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and (layer != "cli" or attr == "main")
            ):
                out[f"{layer}.{attr}"] = fn
    return out


class Tracer:
    """Records spans (name, start, end, parent, op id) in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.extra: dict[int, dict] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._wrappers = {
            id(fn): self._wrap(name, fn) for name, fn in traced_functions().items()
        }

    def _wrap(self, name, fn):
        probe = PROBES.get(name) or (_linalg_probe if name.startswith("linalg.") else None)
        names, start, end, parent, ops = self.names, self.start, self.end, self.parent, self.op
        stack, extra, clock = self._stack, self.extra, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                extra[idx] = probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or (modname != PACKAGE and not modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def profile(self, lo: int, hi: int) -> dict:
        """Calls, inclusive ms and self ms per span name over spans lo..hi-1.

        Also ``layer:<module>`` entries: calls into a module from outside
        it (spans whose parent belongs to another module or is absent).
        """
        dur = [(self.end[i] - self.start[i]) * 1e3 for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out: dict[str, dict] = {}

        def add(key, i):
            row = out.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += dur[i - lo]
            row["self_ms"] += dur[i - lo] - child[i - lo]

        for i in range(lo, hi):
            name = self.names[i]
            add(name, i)
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            if p < 0 or self.names[p].split(".", 1)[0] != layer:
                add("layer:" + layer, i)
        return out

    def cycle_metrics(self, lo: int, hi: int) -> dict:
        """Every per-layer metric except the overhead ratio, over spans lo..hi-1."""
        prof = self.profile(lo, hi)
        zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}

        def row(name):
            return prof.get(name, zero)

        def extra_sum(name, key):
            return sum(
                self.extra[i][key] for i in range(lo, hi)
                if self.names[i] == name and i in self.extra
            )

        op_bytes = max(
            (self.extra[i].get("op_bytes", 0) for i in range(lo, hi) if i in self.extra),
            default=0,
        )
        stages = {s: 0.0 for s in STAGES}
        for i in range(lo, hi):
            if self.names[i] == "protocol.run_protocol" and i in self.extra:
                for s in STAGES:
                    stages[s] += self.extra[i]["stages"].get(s, 0.0)
        return {
            "cli.main.calls": row("cli.main")["calls"],
            "cli.main.self_ms": row("cli.main")["self_ms"],
            "protocol.run_protocol.ms": row("protocol.run_protocol")["ms"],
            "protocol.u_enc.ms": row("protocol.u_enc")["ms"],
            "protocol.v_of_p.calls": row("protocol.v_of_p")["calls"],
            "protocol.v_of_p.self_ms": row("protocol.v_of_p")["self_ms"],
            "protocol.u_dec_dense.ms": row("protocol.u_dec_dense")["ms"],
            "protocol.dec_projector_sum.ms": row("protocol.dec_projector_sum")["ms"],
            **{f"protocol.stage.{s}_ms": stages[s] for s in STAGES},
            "protocol.verify_identities.ms": row("protocol.verify_identities")["ms"],
            "circuits.build_udec_circuit.ms": row("circuits.build_udec_circuit")["ms"],
            "circuits.circuit_to_unitary.ms": row("circuits.circuit_to_unitary")["ms"],
            "circuits.circuit_to_unitary.gates": extra_sum("circuits.circuit_to_unitary", "gates"),
            "linalg.is_unitary.calls": row("linalg.is_unitary")["calls"],
            "linalg.is_unitary.ms": row("linalg.is_unitary")["ms"],
            "linalg.is_unitary.flop_computed": extra_sum("linalg.is_unitary", "flop"),
            "linalg.embed_apply.ms": row("linalg.embed_apply")["ms"],
            "linalg.embed_apply.flop_computed": extra_sum("linalg.embed_apply", "flop"),
            "linalg.reduced_density.ms": row("linalg.reduced_density")["ms"],
            "linalg.product_state.ms": row("linalg.product_state")["ms"],
            "linalg.dense_op_mb": op_bytes / 2**20,
            "cazac.chu.calls": row("cazac.chu")["calls"],
            "cazac.chu.ms": row("cazac.chu")["ms"],
            "cazac.autocorr2d.ms": row("cazac.autocorr2d")["ms"],
            "gates.calls": row("layer:gates")["calls"],
            "gates.ms": row("layer:gates")["ms"],
        }

    def dump(self, path, t_origin: float) -> None:
        """Write every span as a JSON line [op, name, start_ms, end_ms, parent]."""
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                row = [
                    self.op[i], name,
                    round((self.start[i] - t_origin) * 1e3, 4),
                    round((self.end[i] - t_origin) * 1e3, 4),
                    self.parent[i],
                ]
                fh.write(json.dumps(row) + "\n")
