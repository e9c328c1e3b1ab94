"""Spans and counters around the public functions of each infoclone module.

The tracer replaces a function with a timing wrapper in every loaded
``infoclone`` module that binds it, so calls through ``module.name`` and
through ``from module import name`` are both seen.  Spans (name, start, end,
parent, command id) are kept in memory and written out at the end; nothing
in the package changes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> functions recorded as spans
SPANNED = {
    "cli": ("main",),
    "measurement": ("run_info_trials", "summarize", "ks_statistic", "fidelity_values"),
    "gaussian_cloner": ("run_gauss_trials", "gauss_cdf", "gauss_pdf", "comparison_table"),
    "fock_oracle": ("verify_disentanglement", "evolve_product_state",
                    "product_coherent_state", "expm_multiply"),
    "phase_space": ("build_transfer", "apply_transfer", "unitarity_deviation"),
}
# module -> functions only counted: they run once per trial or per batch
COUNTED = {"measurement": ("measurement_fidelity", "trial_rng")}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.counts = defaultdict(int)
        self.command = -1
        self._stack = []
        self._restore = []

    def _span_wrapper(self, name, func):
        spans, stack = self.spans, self._stack
        expm = name == "fock_oracle.expm_multiply"

        def wrapper(*args, **kwargs):
            if expm:
                self.counts["fock_oracle.hilbert_dim"] += args[0].shape[0]
                self.counts["fock_oracle.generator_nnz"] += getattr(args[0], "nnz", 0)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None,
                          self.command])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return wrapper

    def _count_wrapper(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function wherever an infoclone module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "infoclone" or n.startswith("infoclone."))]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, names in table.items():
                home = sys.modules[f"infoclone.{module_name}"]
                for attr in names:
                    original = getattr(home, attr, None)
                    if original is None:  # gone from this version: its metrics read 0
                        continue
                    wrapper = make(f"{module_name}.{attr}", original)
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def totals(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the direct children's durations)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        result = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = result[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(result)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, command in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "command": command}) + "\n")
