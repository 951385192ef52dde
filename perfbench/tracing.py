"""Spans around calls into loopdual's public functions, recorded from the
benchmark's side without editing the package.

`Tracer.install` wraps every public function of the eight modules and then
rebinds every module attribute that refers to one of them, including names
pulled in by `from .x import y`, so calls between modules land in spans.
Each span records its function, start, end, parent span and query id.
Spans stay in memory; `summary` derives calls, total and self time, and
`write` dumps the raw spans when the run is over.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

MODULES = ("cli", "lattice", "root_data", "central_ext", "loop_symbols",
           "dynkin", "twisted_dual", "rep_check")


def _datum_key(cartan_type, isogeny="sc"):
    return (str(cartan_type), repr(isogeny))


# Functions whose distinct inputs are counted, for `<fn>.distinct_frac`.
DISTINCT_KEYS = {
    "root_data.build_datum": _datum_key,
    "central_ext.commutator_denominator": lambda datum: datum,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("l")
        self.parent = array("l")
        self.query = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.query_id = -1
        self.distinct: dict[str, set] = {}

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        fns, parents, queries = self.fn, self.parent, self.query
        starts, ends, stack = self.start, self.end, self.stack
        keyfn = DISTINCT_KEYS.get(name)
        seen = self.distinct.setdefault(name, set()) if keyfn else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fns.append(nid)
            parents.append(stack[-1])
            queries.append(self.query_id)
            starts.append(0.0)
            ends.append(0.0)
            if seen is not None:
                seen.add(keyfn(*args, **kwargs))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def install(self) -> None:
        """Wrap the public functions of loopdual's eight modules."""
        modules = [importlib.import_module(f"loopdual.{name}") for name in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def summary(self) -> dict:
        """Per function: calls, total_s (outermost calls only, so recursion
        is not counted twice) and self_s (duration minus direct children)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for i in range(n):
            fid = self.fn[i]
            entry = stats[self.names[fid]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.fn[p] != fid:
                p = self.parent[p]
            if p < 0:
                entry["total_s"] += dur[i]
        for name, seen in self.distinct.items():
            calls = stats[name]["calls"]
            stats[name]["distinct"] = len(seen)
            stats[name]["distinct_frac"] = len(seen) / calls if calls else 0.0
        return stats

    def write(self, path) -> None:
        """Raw spans as gzipped CSV: span,function,parent,query,start,end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,function,parent,query,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.fn[i]]},{self.parent[i]},"
                         f"{self.query[i]},{self.start[i]:.9f},{self.end[i]:.9f}\n")
