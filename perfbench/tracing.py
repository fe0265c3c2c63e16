"""Spans around coxchar's public callables, installed from outside the
library by rebinding names at run time.

Every module of the package that holds a reference to a target function
gets the wrapper in its place, and methods are replaced on their class,
so calls between modules are traced too.  Spans stay in memory as
parallel integer arrays (name, start, end, parent span, op id) and are
written out once, at the end of a pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

# metric prefix -> (module, attribute path)
TARGETS = {
    "rootdata.build": ("coxchar.rootdata", "build"),
    "character.char_at_coxeter": ("coxchar.character", "char_at_coxeter"),
    "character.regularity_test": ("coxchar.character", "regularity_test"),
    "character.alcove_reduce": ("coxchar.character", "alcove_reduce"),
    "character.fs_indicator": ("coxchar.character", "fs_indicator"),
    "weyl.make_dominant": ("coxchar.weyl", "make_dominant"),
    "oracle.char_at_coxeter_oracle": ("coxchar.oracle", "char_at_coxeter_oracle"),
    "oracle.signed_orbit_counts": ("coxchar.oracle", "CoxeterEvaluation.signed_orbit_counts"),
    "oracle.denominator": ("coxchar.oracle", "CoxeterEvaluation.denominator"),
    "cyclotomic.from_poly": ("coxchar.cyclotomic", "CyclotomicInt.from_poly"),
    "cyclotomic.divide_exact": ("coxchar.cyclotomic", "divide_exact"),
    "torsion.classify_regular_orbits": ("coxchar.torsion", "classify_regular_orbits"),
    "torsion.duality_report": ("coxchar.torsion", "duality_report"),
    "lattice.quotient": ("coxchar.lattice", "quotient"),
    "lattice.project": ("coxchar.lattice", "FiniteAbelianGroup.project"),
    "lattice.section": ("coxchar.lattice", "FiniteAbelianGroup.section"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.make_dominant_steps = 0
        self.orbit_points = 0
        self.missing: list[str] = []

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every target; a target the library no longer has is
        recorded in ``missing`` and reported as such, never as zero."""
        hooks = {
            "weyl.make_dominant": self._count_make_dominant,
            "oracle.signed_orbit_counts": self._count_orbit,
        }
        for name, (modname, path) in TARGETS.items():
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            hook = hooks.get(name)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, hook)))
            elif owner_name:
                setattr(owner, attr, self.wrap(name, raw, hook))
            else:
                traced = self.wrap(name, raw, hook)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").partition(".")[0] != "coxchar":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, traced)

    def _count_make_dominant(self, args, out) -> None:
        self.make_dominant_steps += out[2]

    def _count_orbit(self, args, out) -> None:
        # one orbit point per Weyl group element of the factor walked
        self.orbit_points += args[0].factor.weyl_order

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per wrapped name.  Self time is a
        span's duration minus the time its child spans cover; one thread
        runs, so children never overlap and their durations add."""
        n = len(self.start)
        child = [0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        """Write spans as tab-separated text: id, parent, op, name,
        start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name_of[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )
