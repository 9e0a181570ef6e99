"""In-memory span tracing around the public callables of each poseguide layer.

Each wrapper is installed at the name its caller looks up (for example
``poseguide.sampler.sigma_matrix``, which the sampler imported by name, or
``poseguide.rot6d.batch_from_sixdof``, which callers reach through the
module), so the program itself is not modified.  A span records its name,
start, end, parent span and the region it ran in ("setup" or "op"); self
time is derived afterwards by subtracting the time covered by child spans.
Nothing is recorded while ``Tracer.region`` is None, and nothing is
patched at all outside ``Tracer.installed()``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter

# (module path, attribute owner inside it, attribute, span name, is staticmethod)
TARGETS = (
    ("poseguide.cli", None, "main", "cli.main", False),
    ("poseguide.cli", None, "run_guided_inference", "sampler.run_guided_inference", False),
    ("poseguide.cli", None, "write_cells", "datagen.write_cells", False),
    ("poseguide.cli", None, "load_sequence", "datagen.load_sequence", False),
    ("poseguide.cli", None, "save_sequence", "datagen.save_sequence", False),
    ("poseguide.sampler", None, "likelihood_score", "sampler.likelihood_score", False),
    ("poseguide.sampler", None, "ddim_step", "sampler.ddim_step", False),
    ("poseguide.sampler", None, "tweedie_denoise", "sampler.tweedie_denoise", False),
    ("poseguide.sampler", None, "sigma_matrix", "uncertainty.sigma_matrix", False),
    ("poseguide.sampler", None, "build_A", "measurement.build_A", False),
    ("poseguide.sampler", None, "differential_transform",
     "measurement.differential_transform", False),
    ("poseguide.sampler", None, "recover_root_translation",
     "skeleton.recover_root_translation", False),
    ("poseguide.skeleton", None, "forward_kinematics", "skeleton.forward_kinematics", False),
    ("poseguide.rot6d", None, "batch_from_sixdof", "rot6d.batch_from_sixdof", False),
    ("poseguide.rot6d", None, "vjp_from_sixdof", "rot6d.vjp_from_sixdof", False),
    ("poseguide.rot6d", None, "jacobian_from_sixdof", "rot6d.jacobian_from_sixdof", False),
    ("poseguide.measurement", "LinearOperatorA", "apply_diff_vec9",
     "measurement.apply_diff_vec9", False),
    ("poseguide.measurement", "MeasurementSet", "load", "measurement.MeasurementSet.load", True),
    ("poseguide.denoiser", "MLPDenoiser", "predict", "denoiser.predict", False),
    ("poseguide.denoiser", "MLPDenoiser", "vjp", "denoiser.vjp", False),
    ("poseguide.denoiser", "MLPDenoiser", "load", "denoiser.load", True),
    ("poseguide.denoiser", None, "train_denoiser", "denoiser.train_denoiser", False),
    ("poseguide.metrics", None, "evaluate_cell", "metrics.evaluate_cell", False),
)


class Tracer:
    """Records nested spans for the wrapped callables while a region is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, region]
        self.region: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self.region is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, perf_counter(), 0.0, parent, self.region])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, owner_name, attr, span, static in TARGETS:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                raw = vars(owner).get(attr)
                if raw is None:
                    self.missing.append(span)
                    continue
                fn = raw.__func__ if static else raw
                wrapped = self.wrap(span, fn)
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def recording(self, region: str):
        self.region = region
        try:
            yield
        finally:
            self.region = None

    def summary(self, region: str) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent, reg in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, reg) in enumerate(self.spans):
            if reg != region:
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def covered_s(self, region: str) -> float:
        """Seconds of the region covered by at least one top-level span."""
        return sum(end - start for name, start, end, parent, reg in self.spans
                   if reg == region and parent < 0)
