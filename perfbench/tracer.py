"""Spans around the package's public functions, recorded from outside it.

A ``from x import f`` copies the reference to ``f``, so wrapping a function
only in its defining module would miss most callers: ``validate`` is called
through ``bicircle.scenario`` and ``bicircle.construction``, ``meet`` through
``bicircle.construction`` and ``bicircle.figures``. ``Tracer.install``
therefore rebinds the name in every package module that holds the original,
and ``uninstall`` restores them. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

MODULES = (
    "bicircle",
    "bicircle.exact",
    "bicircle.scenario",
    "bicircle.construction",
    "bicircle.figures",
    "bicircle.cli",
)

# Defining module -> functions that get a span. The span is named
# "<layer>.<function>", the layer being the module's last name part.
SPANNED = {
    "bicircle.exact": ("second_intersection", "line_through", "meet", "tangent_at"),
    "bicircle.scenario": ("validate", "derive"),
    "bicircle.construction": (
        "construct_image", "image_closed_form", "locus_x", "random_scenario", "random_probe",
    ),
    "bicircle.figures": ("layout", "render_svg"),
}
# Called hundreds of times per document: counted, not spanned.
COUNTED = {"bicircle.figures": ("decimal6",)}

# Span record fields.
NAME, START, END, PARENT, OP, CALLER = range(6)


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _image_bits(result) -> int:
    """Largest numerator or denominator bit length across M, N and P'."""
    p_prime = result.p_prime
    values = [result.M.x, result.M.y, result.N.x, result.N.y]
    values += [p_prime.point.x, p_prime.point.y] if p_prime.is_finite else list(p_prime.direction)
    return max(_bits(v) for v in values)


class Tracer:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.op = -1
        self._saved: list[tuple] = []

    def install(self) -> None:
        targets = [(d, n, True) for d, names in SPANNED.items() for n in names]
        targets += [(d, n, False) for d, names in COUNTED.items() for n in names]
        for defining, name, spanned in targets:
            label = f"{defining.rsplit('.', 1)[1]}.{name}"
            original = getattr(sys.modules[defining], name)
            for modname in MODULES:
                module = sys.modules[modname]
                if getattr(module, name, None) is not original:
                    continue
                caller = modname.rsplit(".", 1)[-1]
                if spanned:
                    wrapper = self._span(label, original, caller)
                else:
                    wrapper = self._count(label, original)
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _span(self, name, fn, caller):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        on_result = {
            "construction.construct_image": self._note_image,
            "figures.render_svg": self._note_svg,
        }.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, caller]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_image(self, result) -> None:
        self.max_bits = max(self.max_bits, _image_bits(result))

    def _note_svg(self, svg: str) -> None:
        self.counts["figures.svg_bytes"] += len(svg.encode())

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named "op"."""
        self.op = op_id
        return self._span("op", fn, "perfbench")(*args)

    def call_counts(self) -> Counter:
        """Exact counts of the recorded spans, plus the counted functions."""
        counts = Counter(self.counts)
        for span in self.spans:
            counts[span[NAME]] += 1
            if span[NAME] == "exact.meet" and span[CALLER] == "figures":
                counts["figures.meet"] += 1
            if self._sampling_draw(span):
                counts["scenario.validate.sampling"] += 1
        counts["exact.calls"] = sum(v for k, v in counts.items() if k.startswith("exact."))
        return counts

    def _sampling_draw(self, span) -> bool:
        """A ``validate`` call made by ``random_scenario`` to accept or reject a draw."""
        return (
            span[NAME] == "scenario.validate"
            and span[PARENT] >= 0
            and self.spans[span[PARENT]][NAME] == "construction.random_scenario"
        )

    def times_ns(self) -> tuple[Counter, Counter]:
        """Total and self time per span name; self time excludes child spans."""
        total, child = Counter(), Counter()
        for span in self.spans:
            duration = span[END] - span[START]
            total[span[NAME]] += duration
            if span[PARENT] >= 0:
                # Spans nest strictly in one thread, so the children of a
                # span cover disjoint parts of it.
                child[span[PARENT]] += duration
        own = Counter()
        for index, span in enumerate(self.spans):
            own[span[NAME]] += span[END] - span[START] - child[index]
        sampling_validate = sum(
            span[END] - span[START] for span in self.spans if self._sampling_draw(span)
        )
        total["construction.sampling"] = (
            total["construction.random_scenario"] + total["construction.random_probe"]
            - sampling_validate
        )
        return total, own


def count_fractions(fn, *args):
    """Run ``fn`` and count the ``Fraction`` objects built, with a profile hook."""
    code = Fraction.__new__.__code__
    built = 0

    def hook(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is code:
            built += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return built, result
