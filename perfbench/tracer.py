"""Per-module timing of a thcavity run, from outside the package.

`Tracer.installed()` replaces module attributes with timing wrappers for the
duration of a `with` block and puts the originals back afterwards.  Coarse
calls (run_config, solves, writers, analysis, scans) become spans with a
parent; per-step callbacks (RHS, observe, Hamiltonian builds) are too many to
keep one by one, so they are counted and their time summed instead.  Nothing
under `src/` changes.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import thcavity.cli as cli
import thcavity.lindblad as lindblad
import thcavity.maxwell_bloch as maxwell_bloch
import thcavity.superradiance as superradiance
import thcavity.sweep as sweep

DYNAMICS = {"sweep": sweep, "superradiance": superradiance,
            "lindblad": lindblad, "maxwell_bloch": maxwell_bloch}

# name -> unit; every per-layer metric the traced run prints
LAYER_UNITS = {
    "cli.run_config_s": "s", "cli.self_s": "s", "cli.pool_speedup": "ratio",
    "output.write_s": "s", "output.bytes": "bytes", "output.files": "count",
    "integrate.solve_calls": "count", "integrate.rhs_calls": "count",
    "integrate.samples": "count", "integrate.rhs_s": "s",
    "integrate.observe_s": "s", "integrate.self_s": "s",
    "integrate.self_us_per_rhs": "us",
    "sweep.rhs_calls": "count", "sweep.rhs_us": "us", "sweep.solve_s": "s",
    "sweep.analysis_s": "s",
    "superradiance.rhs_calls": "count", "superradiance.rhs_us": "us",
    "superradiance.pumped_s": "s", "superradiance.free_s": "s",
    "superradiance.analysis_s": "s",
    "lindblad.rhs_calls": "count", "lindblad.rhs_us": "us",
    "lindblad.hamiltonian_calls": "count", "lindblad.hamiltonian_s": "s",
    "lindblad.check_s": "s",
    "maxwell_bloch.rhs_calls": "count", "maxwell_bloch.rhs_us": "us",
    "maxwell_bloch.extract_s": "s",
    "spectrum.scan_s": "s", "phase_diagram.scan_s": "s",
    "tracing_overhead_s": "s",
}


def _tallied(tally, fn):
    """fn, adding each call and its seconds to tally = [calls, seconds]."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tally[1] += perf_counter() - t0
            tally[0] += 1
    return wrapper


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs]
        self._open = []
        # name -> [calls, seconds or bytes], for calls too many to keep as spans
        self.counts = {"lindblad.hamiltonian": [0, 0.0], "output.written": [0, 0]}

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   self._open[-1] if self._open else -1, attrs or {}]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._open.pop()
        return wrapper

    def _solve(self, module, solve):
        # solve_sampled as one dynamics module imported it; the solve's RHS
        # and observe callbacks are tallied on its span
        @functools.wraps(solve)
        def wrapper(rhs, t_span, y0, sample_times, *, observe=None, **kwargs):
            attrs = {"rhs": rhs.__qualname__, "samples": len(sample_times),
                     "rhs_tally": [0, 0.0], "observe_tally": [0, 0.0]}
            if observe is not None:
                observe = _tallied(attrs["observe_tally"], observe)
            return self._span(f"{module}.solve", solve, attrs)(
                _tallied(attrs["rhs_tally"], rhs), t_span, y0, sample_times,
                observe=observe, **kwargs)
        return wrapper

    def _written(self, fn):
        def counted(*args, **kwargs):
            path = fn(*args, **kwargs)
            tally = self.counts["output.written"]
            tally[0] += 1
            tally[1] += Path(path).stat().st_size
            return path
        return self._span("output.write", functools.wraps(fn)(counted))

    def _targets(self):
        spans = [
            (cli, "run_config", "cli.run_config"),
            (cli, "integrate_master", "lindblad.integrate_master"),
            (maxwell_bloch, "extract_rabi_frequency", "maxwell_bloch.extract"),
            (cli, "spectrum_scan", "spectrum.scan"),
            (cli, "grid_scan", "phase_diagram.scan"),
        ]
        for mod in (cli, sweep):
            spans += [(mod, "polariton_populations", "sweep.analysis"),
                      (mod, "jump_time", "sweep.analysis")]
        for mod in (cli, superradiance):
            spans += [(mod, "post_pump_segment", "superradiance.analysis"),
                      (mod, "pulse_width_fwhm", "superradiance.analysis")]
        spans.append((cli, "peak_scaling_fit", "superradiance.analysis"))
        out = [(mod, attr, lambda fn, n=name: self._span(n, fn))
               for mod, attr, name in spans]
        out += [(mod, "solve_sampled", functools.partial(self._solve, name))
                for name, mod in DYNAMICS.items()]
        out += [(cli, "write_csv", self._written), (cli, "write_json", self._written),
                (cli, "build_hamiltonian_operators",
                 functools.partial(_tallied, self.counts["lindblad.hamiltonian"]))]
        return out

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod, attr, wrap in self._targets():
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, wrap(original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- metrics ------------------------------------------------------------

    def _total(self, name):
        # outermost spans only, so nested calls of one group count once
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and (s[3] < 0 or self.spans[s[3]][0] != name))

    def metrics(self) -> dict:
        """Per-layer numbers of everything run while installed."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        runs = [(s, c) for s, c in zip(self.spans, child) if s[0] == "cli.run_config"]
        written = self.counts["output.written"]
        m = {
            "cli.run_config_s": sum(s[2] - s[1] for s, _ in runs),
            "cli.self_s": sum(s[2] - s[1] - c for s, c in runs),
            "output.write_s": self._total("output.write"),
            "output.bytes": written[1],
            "output.files": written[0],
        }
        solves = [s for s in self.spans if s[0].endswith(".solve")]
        rhs_calls = sum(s[4]["rhs_tally"][0] for s in solves)
        rhs_s = sum(s[4]["rhs_tally"][1] for s in solves)
        observe_s = sum(s[4]["observe_tally"][1] for s in solves)
        self_s = sum(s[2] - s[1] for s in solves) - rhs_s - observe_s
        m.update({
            "integrate.solve_calls": len(solves),
            "integrate.rhs_calls": rhs_calls,
            "integrate.samples": sum(s[4]["samples"] for s in solves),
            "integrate.rhs_s": rhs_s,
            "integrate.observe_s": observe_s,
            "integrate.self_s": self_s,
            "integrate.self_us_per_rhs": 1e6 * self_s / rhs_calls if rhs_calls else 0.0,
        })
        for module in DYNAMICS:
            own = [s for s in solves if s[0] == f"{module}.solve"]
            calls = sum(s[4]["rhs_tally"][0] for s in own)
            secs = sum(s[4]["rhs_tally"][1] for s in own)
            m[f"{module}.rhs_calls"] = calls
            m[f"{module}.rhs_us"] = 1e6 * secs / calls if calls else 0.0

        def solve_time(module, rhs_name=""):
            return sum(s[2] - s[1] for s in solves if s[0] == f"{module}.solve"
                       and s[4]["rhs"].endswith(rhs_name))

        h_calls, h_s = self.counts["lindblad.hamiltonian"]
        masters = [(s, c) for s, c in zip(self.spans, child)
                   if s[0] == "lindblad.integrate_master"]
        m.update({
            "sweep.solve_s": solve_time("sweep"),
            "sweep.analysis_s": self._total("sweep.analysis"),
            "superradiance.pumped_s": solve_time("superradiance", "rhs_pumped"),
            "superradiance.free_s": solve_time("superradiance", "rhs_free"),
            "superradiance.analysis_s": self._total("superradiance.analysis"),
            "lindblad.hamiltonian_calls": h_calls,
            "lindblad.hamiltonian_s": h_s,
            "lindblad.check_s": sum(s[2] - s[1] - c for s, c in masters),
            "maxwell_bloch.extract_s": self._total("maxwell_bloch.extract"),
            "spectrum.scan_s": self._total("spectrum.scan"),
            "phase_diagram.scan_s": self._total("phase_diagram.scan"),
        })
        return m

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
