"""Assembly-building helpers shared by the workload kernels.

Workloads are written as assembly templates (the paper applies CFD
*manually* to benchmark source; our templates are those manual
transformations).  Large input arrays are declared with ``.space`` and
filled programmatically after assembly so templates stay readable.

Register conventions used across the kernels::

    r1-r13   scratch / loop state
    r14-r19  kernel parameters (thresholds, markers, bases)
    r20-r25  accumulators that survive the whole kernel
    r26-r29  chunk bookkeeping for strip-mined CFD loops
"""

import os
import sys
from array import array

from repro.errors import LintError, WorkloadError
from repro.isa.assembler import assemble
from repro.workloads.data_gen import to_words

#: Recognised ``REPRO_LINT`` build-gate modes.
LINT_MODES = ("off", "warn", "strict")


class AsmBuilder:
    """Accumulates assembly text with unique-label generation."""

    def __init__(self):
        self._lines = []
        self._label_counter = 0

    def raw(self, text):
        """Append raw assembly (dedented template text)."""
        self._lines.append(text)
        return self

    def label(self, prefix="L"):
        """Return a fresh unique label name."""
        self._label_counter += 1
        return "%s_%d" % (prefix, self._label_counter)

    def source(self):
        return "\n".join(self._lines)


def install_array(program, symbol, values):
    """Fill a ``.space``-declared array with *values* (word granular)."""
    if symbol not in program.symbols:
        raise WorkloadError("unknown data symbol %r" % symbol)
    program.data.store_words(
        program.symbols[symbol], array("I", to_words(values)))


def lint_mode():
    """The active ``REPRO_LINT`` gate mode (``strict`` unless overridden).

    ``off`` skips the gate, ``warn`` prints diagnostics to stderr but
    still returns the program, ``strict`` (the default, and the fallback
    for unrecognised values) raises :class:`~repro.errors.LintError`.
    """
    mode = os.environ.get("REPRO_LINT", "strict").strip().lower()
    return mode if mode in LINT_MODES else "strict"


def lint_gate(program, mode=None):
    """Run the static CFD contract verifier over a built *program*.

    Every assembled workload and every lowered kernel funnels through
    :func:`build_program`, so this single gate covers both the hand
    templates and the transform passes' output.
    """
    mode = lint_mode() if mode is None else mode
    if mode == "off":
        return program

    from repro.lint import lint_program

    diagnostics = lint_program(program)
    if not diagnostics:
        return program
    rendered = "\n".join(
        "  " + d.render(program) for d in diagnostics
    )
    message = "lint failed for %s (%d finding%s):\n%s" % (
        program.name, len(diagnostics),
        "" if len(diagnostics) == 1 else "s", rendered,
    )
    if mode == "warn":
        print("repro: lint warning: %s" % message, file=sys.stderr)
        return program
    raise LintError(message, diagnostics)


def build_program(source, name, arrays=None):
    """Assemble *source*, install {symbol: values} arrays, lint-gate it."""
    program = assemble(source, name=name)
    for symbol, values in (arrays or {}).items():
        install_array(program, symbol, values)
    return lint_gate(program)


def chunked(total, chunk):
    """Split *total* items into strip-mine chunks: [(start, count), ...].

    CFD software must keep each decoupled burst within the BQ size
    (Section III-B); the workloads strip-mine with this helper and assert
    the invariant here rather than discovering it as a fetch deadlock.
    """
    if chunk <= 0:
        raise WorkloadError("chunk must be positive")
    pieces = []
    start = 0
    while start < total:
        count = min(chunk, total - start)
        pieces.append((start, count))
        start += count
    return pieces


def require(condition, message):
    """Workload-parameter validation with a uniform error type."""
    if not condition:
        raise WorkloadError(message)
