"""In-process spans around the public functions of each bhamsys layer.

Callers inside the library import these functions by name, so each wrapper
is installed under every name a caller looks up (for example both
``bhamsys.cli.integrate`` and ``bhamsys.orbits.integrate``).  Spans are
aggregated in memory per name: calls, total time and self time, where self
time is a span's duration minus the time covered by its child spans.
Counts of work (steps, field evaluations, rows, pairs) are taken at the same
boundaries.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) under which callers look the function up
_FUNCTIONS = {
    "cli.run": [("bhamsys.cli", "run")],
    "integrate": [("bhamsys.cli", "integrate"), ("bhamsys.orbits", "integrate"),
                  ("bhamsys.timescale", "integrate")],
    "geometry.field": [("bhamsys.integrate", "hamiltonian_vector_field"),
                       ("bhamsys.liftcheck", "hamiltonian_vector_field")],
    "orbits.classify": [("bhamsys.cli", "classify_orbit"), ("bhamsys.orbits", "classify_orbit")],
    "orbits.portrait": [("bhamsys.cli", "phase_portrait")],
    "timescale.run": [("bhamsys.cli", "run_rescaled"), ("bhamsys.cli", "run_s_coordinates")],
    "timescale.reconstruct": [("bhamsys.cli", "reconstruct_real_time")],
    "liftcheck.test": [("bhamsys.cli", "projectability_test")],
}
# span name -> (module, class, method)
_METHODS = {
    "integrate.write_csv": [("bhamsys.integrate", "Trajectory", "write_csv")],
    "hamiltonians.gradient": [("bhamsys.hamiltonians", "HamiltonianSpec", "gradient"),
                              ("bhamsys.hamiltonians", "LogMomentumHamiltonian", "gradient")],
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._stack = []

    def wrap(self, name, fn):
        on_result = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.active[name] -= 1
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self):
        """Replace every listed function and method with its traced wrapper."""
        for name, targets in _FUNCTIONS.items():
            for module, attr in targets:
                mod = sys.modules[module]
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for name, targets in _METHODS.items():
            for module, cls_name, attr in targets:
                cls = getattr(sys.modules[module], cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    # counts taken where the work happens
    def _after_integrate(self, args, traj):
        self.counts["integrate.steps"] += len(traj) - 1

    def _after_geometry_field(self, args, result):
        if self.active["integrate"]:
            self.counts["integrate.field_evals"] += 1

    def _after_integrate_write_csv(self, args, result):
        self.counts["integrate.csv_rows"] += len(args[0])

    def _after_orbits_classify(self, args, cls):
        if cls.kind.value == "periodic":
            self.counts["orbits.periodic"] += 1

    def _after_liftcheck_test(self, args, verdict):
        bases, fibers = len(args[2]), len(args[3])
        self.counts["liftcheck.pairs"] += bases * fibers * (fibers - 1) // 2

    def report(self):
        return {"spans": {name: [self.calls[name], self.total[name], self.self_time[name]]
                          for name in self.calls},
                "counts": dict(self.counts)}
