"""Spans around calls into dmlab's public functions, recorded from outside.

`Tracer.install()` replaces each traced function on every ``dmlab`` module
attribute that binds it (so ``dmlab.doubling.interval_mass``,
``dmlab.qs.pow_bounds`` and ``dmlab.certify.pow_bounds`` are wrapped along
with their home modules) and `uninstall()` puts the originals back.  Spans
stay in memory, each with its op id and parent span, and are written out
once at the end.  Self time is a span's duration minus the time of the
wrapped calls nested directly inside it.  Times are process CPU seconds.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs; the per-layer metrics are named after them
TRACED = (
    ("cli", "main"),
    ("experiments", "run_experiment"),
    ("reports", "dump_report"),
    ("reports", "doubling_report_payload"),
    ("doubling", "doubling_scan"),
    ("doubling", "scan_core"),
    ("doubling", "per_scale_max_ratios"),
    ("doubling", "fit_ratio_decay"),
    ("doubling", "fit_mass_window"),
    ("doubling", "verify_small_ball_bound"),
    ("qs", "qs_ratio_scan"),
    ("qs", "pullback_constant"),
    ("measure", "dyadic_cdf_grid"),
    ("measure", "interval_mass"),
    ("measure", "restrict"),
    ("measure", "cutout_mass"),
    ("geom", "build_cantor"),
    ("geom", "remaining_set"),
    ("certify", "product_bracket"),
    ("certify", "certify_fat_thick"),
    ("certify", "certify_thin_porous"),
    ("certify", "logfloor_schedule_mass"),
    ("certify", "cutout_lower_bound"),
    ("certify", "inflated_remainder_check"),
    ("seq", "tail_sum_upper"),
    ("seq", "classify_ellp"),
    ("enclosure", "pow_bounds"),
    ("enclosure", "log2_bounds"),
    ("enclosure", "exp2_bounds"),
    ("enclosure", "refine"),
)


class Tracer:
    def __init__(self) -> None:
        self.op_id: int | None = None  # None: calls pass through unrecorded
        self.spans: list[tuple] = []  # (span, parent, op, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # extra counters
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        calls, self_s = self.calls, self.self_s
        clock = time.process_time  # the clock the end-to-end metrics use

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the id so children can point at it
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[1] += took
                calls[name] += 1
                self_s[name] += took - frame[1]
                spans[frame[0]] = (frame[0], None if parent is None else parent[0],
                                   self.op_id, name, start, end)

        return traced

    def _special(self, name: str, fn):
        """Wrappers that also count work: refine's attempts and the bytes of
        every dumped report."""
        counts = self.counts
        if name == "enclosure.refine":
            def refine(check, *args, **kwargs):
                def counted(bits):
                    counts["enclosure.refine.attempts"] += 1
                    return check(bits)
                return fn(counted, *args, **kwargs)
            return functools.wraps(fn)(refine)
        if name == "reports.dump_report":
            def dump_report(*args, **kwargs):
                text = fn(*args, **kwargs)
                counts["reports.dump_report.bytes"] += len(text.encode("utf-8"))
                return text
            return functools.wraps(fn)(dump_report)
        return fn

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "dmlab" or key.startswith("dmlab."))]
        for home_name, func_name in TRACED:
            home = sys.modules[f"dmlab.{home_name}"]
            original = getattr(home, func_name)
            name = f"{home_name}.{func_name}"
            wrapped = self._wrap(name, self._special(name, original))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def ops_touching(self, name: str) -> set[int]:
        return {s[2] for s in self.spans if s is not None and s[3] == name}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"span": span, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
