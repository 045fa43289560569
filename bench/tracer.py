"""Outside-in tracer: wraps public quotbwb functions from the benchmark side.

Every call of a wrapped function becomes a span (name, parent span, start,
end, whether the result was truthy) kept in compact in-memory arrays and
written out once, after the traced instances finish.  Nothing inside the
program is changed; spans in forked pool workers stay in those workers.
"""

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs whose calls become spans.
TRACED = (
    ("cli", "run"),
    ("complexes", "hyper_cohomology"),
    ("pipeline", "e1_page"),
    ("pipeline", "resolve_page"),
    ("bwb", "coh_bundle"),
    ("bwb", "bwb_dual_weights"),
    ("schur", "koszul_pair_mult"),
    ("schur", "skew_expand"),
    ("schur", "lr_expand"),
    ("schur", "tensor_expand_many"),
    ("partitions", "partition"),
    ("partitions", "as_weight"),
)

_FIELDS = (("name", "h"), ("parent", "l"), ("start", "q"), ("end", "q"), ("truthy", "b"))


class Tracer:
    """Spans of wrapped calls, one entry per call in each field array."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in _FIELDS}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends, truthy = self.spans["start"], self.spans["end"], self.spans["truthy"]
        stack, clock = self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            truthy.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                truthy[i] = bool(out)
                return out
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace each TRACED function in every loaded quotbwb module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "quotbwb" or n.startswith("quotbwb.")]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"quotbwb.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def dump(self, directory: Path) -> None:
        (directory / "span_names.json").write_text(json.dumps(self.names))
        for field, _ in _FIELDS:
            with open(directory / f"span_{field}.bin", "wb") as fh:
                self.spans[field].tofile(fh)


def load(directory: Path) -> tuple[list[str], dict[str, array]]:
    names = json.loads((directory / "span_names.json").read_text())
    spans = {}
    for field, code in _FIELDS:
        path = directory / f"span_{field}.bin"
        arr = array(code)
        with open(path, "rb") as fh:
            arr.frombytes(fh.read())
        spans[field] = arr
    return names, spans


def summarize(names: list[str], spans: dict) -> dict[str, dict]:
    """Per function: calls, truthy results, cumulative and self time (s).

    Self time is a span's duration minus the durations of its direct
    children.  Cumulative time counts only the outermost span of a
    function, so recursion is not counted twice.  Spans are in start
    order, so every parent precedes its children.
    """
    name, parent = spans["name"], spans["parent"]
    start, end, truthy = spans["start"], spans["end"], spans["truthy"]
    n = len(name)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    stats = {nm: {"calls": 0, "truthy": 0, "cum_s": 0.0, "self_s": 0.0} for nm in names}
    open_spans: list[int] = []
    active = [0] * len(names)
    for i in range(n):
        while open_spans and open_spans[-1] != parent[i]:
            active[name[open_spans.pop()]] -= 1
        nid = name[i]
        row = stats[names[nid]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["truthy"] += truthy[i]
        row["self_s"] += (dur - child_ns[i]) / 1e9
        if not active[nid]:
            row["cum_s"] += dur / 1e9
        active[nid] += 1
        open_spans.append(i)
    return stats
