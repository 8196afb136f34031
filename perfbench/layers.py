"""Per-layer tracing of the dwf package from outside the program.

`Recorder.install` wraps every public function and every public method of
a public class defined in the eleven layer modules, and rebinds each
wrapped name in every loaded `dwf` module, so calls between layers are
caught as well as calls from the benchmark, which reaches the layers
through module attributes.  Each call becomes one span (function, start, end,
parent) appended to flat arrays in memory; `save` writes them out when a
run ends.  A layer's self time is the time of its spans minus the part
covered by their child spans.

Run as a script, it traces one `dwf` command in a fresh interpreter:

    python3 perfbench/layers.py --spans OUT.npz -- verify --d 4
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "galois",
    "geometry",
    "pauli",
    "mub",
    "quantum_net",
    "wigner",
    "classicality",
    "clifford",
    "formats",
    "verification",
    "cli",
)

# Functions whose calls and self time are reported one by one.
NAMED = (
    "wigner.probabilities",
    "wigner.wigner_function",
    "wigner.wigner_from_point_operators",
    "wigner.reconstruct_state",
    "quantum_net.covariant_completion",
    "classicality.min_wigner",
    "classicality.brute_force_min",
    "classicality.classify",
    "classicality.convex_decomposition",
    "quantum_net.is_flow",
    "quantum_net.QuantumNet.point_operator_table",
    "pauli.Labeling.unitary_at",
    "clifford.is_clifford",
    "clifford.maps_mub_to_mub",
    "clifford.affine_extraction",
    "clifford.clifford_from_symplectic",
    "clifford.squeezing_operator",
    "clifford.fourier_operator",
    "galois.field",
    "geometry.build_striations",
    "pauli.standard_sets",
    "pauli.build_labeling",
    "mub.standard_mub",
    "quantum_net.standard_context",
    "quantum_net.enumerate_nets",
    "geometry.line_points",
    "mub.unbiasedness_report",
    "verification.run_verification",
    "formats.read_json",
    "formats.write_json",
    "formats.state_from_payload",
    "formats.net_from_payload",
    "formats.unitary_from_payload",
    "formats.wigner_to_csv",
    "cli.main",
)

RESUME = "[resume]"  # suffix of the spans that time one step of a generator


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for fn in NAMED:
        names += [f"{fn}.calls", f"{fn}.self_ms"]
    names += [f"{layer}.self_ms" for layer in LAYERS]
    names.append("wigner.probabilities.calls_per_state")
    return names


class Recorder:
    """Spans kept as parallel flat arrays; index i is the i-th span opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.fn)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, func):
        nid = self._id(name)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(func):
            rid = self._id(name + RESUME)

            def steps(gen):
                while True:
                    i = len(fn)
                    fn.append(rid)
                    parent.append(stack[-1] if stack else -1)
                    end.append(0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item

            def wrapper(*args, **kwargs):
                fn.append(nid)
                parent.append(stack[-1] if stack else -1)
                t = clock()
                start.append(t)
                end.append(t)
                return steps(func(*args, **kwargs))
        else:

            def wrapper(*args, **kwargs):
                i = len(fn)
                fn.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0)
                stack.append(i)
                start.append(clock())
                try:
                    return func(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = {layer: importlib.import_module(f"dwf.{layer}") for layer in LAYERS}
        replaced: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        targets = [m for n, m in list(sys.modules.items()) if n == "dwf" or n.startswith("dwf.")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def arrays(self, begin: int = 0, stop: int | None = None) -> dict:
        stop = len(self) if stop is None else stop
        return {
            "names": np.array(self.names),
            "fn": np.frombuffer(self.fn, dtype=np.int32)[begin:stop].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[begin:stop] - begin,
            "start": np.frombuffer(self.start, dtype=np.int64)[begin:stop].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[begin:stop].copy(),
        }

    def save(self, path: str, **extra) -> None:
        np.savez_compressed(path, **self.arrays(), **extra)


def self_times(spans: dict) -> dict[str, tuple[int, float]]:
    """Per function name: (calls, self time in ms) over a set of spans.

    `parent` holds indices into the same arrays; a negative parent means
    the span's caller lies outside the set.  A generator's steps are
    folded into the generator function's self time.
    """
    names = list(spans["names"])
    fn, parent = spans["fn"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    inside = parent >= 0
    covered = np.bincount(parent[inside], weights=dur[inside], minlength=len(fn))
    own = dur - covered[: len(fn)]
    calls = np.bincount(fn, minlength=len(names))
    total = np.bincount(fn, weights=own, minlength=len(names))
    out: dict[str, tuple[int, float]] = {}
    for i, name in enumerate(names):
        base = name[: -len(RESUME)] if name.endswith(RESUME) else name
        n, ms = out.get(base, (0, 0.0))
        out[base] = (n + (0 if base != name else int(calls[i])), ms + total[i] / 1e6)
    return out


def layer_metrics(totals: dict[str, tuple[int, float]], ops: int, states: int) -> dict:
    """The per-layer metrics of a run, each normalized per op."""
    metrics = {}
    for fn in NAMED:
        calls, ms = totals.get(fn, (0, 0.0))
        metrics[f"{fn}.calls"] = (calls / ops, "count")
        metrics[f"{fn}.self_ms"] = (ms / ops, "ms")
    for layer in LAYERS:
        ms = sum(v[1] for k, v in totals.items() if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_ms"] = (ms / ops, "ms")
    calls = totals.get("wigner.probabilities", (0, 0.0))[0]
    metrics["wigner.probabilities.calls_per_state"] = (
        calls / states if states else 0.0,
        "calls/state",
    )
    return metrics


def merge(into: dict[str, tuple[int, float]], more: dict[str, tuple[int, float]]) -> None:
    for name, (calls, ms) in more.items():
        c0, m0 = into.get(name, (0, 0.0))
        into[name] = (c0 + calls, m0 + ms)


def _trace_command(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: layers.py --spans OUT.npz -- <dwf arguments>", file=sys.stderr)
        return 2
    import dwf.cli

    recorder = Recorder()
    recorder.install()
    try:
        return dwf.cli.main(argv[3:])
    finally:
        recorder.save(argv[1])


if __name__ == "__main__":
    sys.exit(_trace_command(sys.argv[1:]))
