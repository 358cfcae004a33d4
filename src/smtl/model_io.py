"""Plain-text model files.

Layout::

    SMTL-MODEL v1
    [kernel]
    kind gaussian
    gamma 0.5
    [X] n d
    <n rows of d values>
    [C] n T
    <n rows of T values>
    [A] T T
    <T rows of T values>

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly, so save/load reproduces C, A, X and the kernel parameters
bit-for-bit. The Gram matrix is not stored, and load does not rebuild it:
the loaded model keeps the kernel spec and X, which is all prediction
needs, and evaluates the training Gram matrix only on first use.
"""

import numpy as np

from .errors import BadKernelParam, NotPsd, ParseError, VersionMismatch
from .kernels import GramMatrix, KernelSpec
from .linalg import PsdMatrix
from .solver import ModelState

MODEL_HEADER = "SMTL-MODEL v1"


def save_model(model, path):
    """Write a fitted model to a text file."""
    spec = model.gram.spec
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(MODEL_HEADER + "\n")
        fh.write("[kernel]\n")
        fh.write("kind %s\n" % spec.kind)
        fh.write("gamma %.17g\n" % spec.gamma)
        for name, mat in (("X", model.gram.X_train), ("C", model.C),
                          ("A", model.A.data)):
            np.savetxt(fh, mat, fmt="%.17g", comments="",
                       header="[%s] %d %d" % ((name,) + mat.shape))


class _Reader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next_line(self, what):
        if self.pos >= len(self.lines):
            raise ParseError(self.pos + 1, "unexpected end of file, expected %s" % what)
        line = self.lines[self.pos].rstrip("\r")
        self.pos += 1
        return line

    def read_block_header(self, name):
        line = self.next_line("[%s] block" % name)
        parts = line.split()
        if len(parts) != 3 or parts[0] != "[%s]" % name:
            raise ParseError(self.pos, "expected '[%s] rows cols', got %r" % (name, line))
        try:
            rows, cols = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(self.pos, "bad dimensions in %r" % line)
        if rows < 0 or cols < 0:
            raise ParseError(self.pos, "negative dimensions in %r" % line)
        for size, what in ((rows, "rows"), (cols, "columns")):
            if not size:  # no input row, feature or task
                raise ParseError(self.pos, "[%s] has no %s, a model needs one"
                                 % (name, what))
        return rows, cols

    def read_matrix(self, name, shape=(None, None), mismatch=None):
        """Read a ``[name] rows cols`` block. ``shape`` is the (rows, cols)
        that the blocks before it require, None where free; a header that
        declares another shape raises ``mismatch`` at the header's line."""
        rows, cols = self.read_block_header(name)
        if shape[0] not in (None, rows) or shape[1] not in (None, cols):
            raise ParseError(self.pos, "%s, declared %d x %d"
                             % (mismatch, rows, cols))
        out = np.empty((rows, cols))
        for i in range(rows):
            line = self.next_line("row %d of [%s]" % (i + 1, name))
            vals = line.split()
            if len(vals) != cols:
                raise ParseError(
                    self.pos, "[%s] row %d has %d values, expected %d"
                    % (name, i + 1, len(vals), cols)
                )
            try:
                out[i] = [float(v) for v in vals]
            except ValueError:
                raise ParseError(self.pos, "non-numeric value in [%s] row %d" % (name, i + 1))
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ParseError(self.pos - rows + i + 1,
                             "non-finite value in [%s] row %d" % (name, i + 1))
        return out


def load_model(path):
    """Read a model file back into a :class:`~smtl.solver.ModelState`.

    The returned model predicts; it carries no problem instance (no targets
    were saved), so it cannot be refit. Nothing but empty lines may follow
    the ``[A]`` block.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    while lines and lines[-1].strip("\r") == "":
        lines.pop()
    rd = _Reader(lines)
    header = rd.next_line("header")
    if header != MODEL_HEADER:
        raise VersionMismatch(
            "expected %r, found %r" % (MODEL_HEADER, header)
        )
    if rd.next_line("[kernel] block") != "[kernel]":
        raise ParseError(rd.pos, "expected [kernel] block")
    kind_line = rd.next_line("kernel kind").split()
    if len(kind_line) != 2 or kind_line[0] != "kind":
        raise ParseError(rd.pos, "expected 'kind <name>'")
    try:
        KernelSpec(kind=kind_line[1])
    except BadKernelParam as exc:
        raise ParseError(rd.pos, str(exc)) from exc
    gamma_line = rd.next_line("kernel gamma").split()
    if len(gamma_line) != 2 or gamma_line[0] != "gamma":
        raise ParseError(rd.pos, "expected 'gamma <value>'")
    try:
        gamma = float(gamma_line[1])
    except ValueError:
        raise ParseError(rd.pos, "bad gamma value %r" % gamma_line[1])
    try:
        spec = KernelSpec(kind=kind_line[1], gamma=gamma)
    except BadKernelParam as exc:
        raise ParseError(rd.pos, str(exc)) from exc
    x = rd.read_matrix("X")
    c = rd.read_matrix("C", (x.shape[0], None),
                       "[C] row count does not match [X]'s %d" % x.shape[0])
    t = c.shape[1]
    a = rd.read_matrix("A", (t, t),
                       "[A] must be T x T matching [C]'s %d columns" % t)
    if rd.pos < len(lines):  # trailing empty lines were dropped above
        raise ParseError(rd.pos + 1, "unexpected %r after the [A] block"
                         % lines[rd.pos].rstrip("\r"))
    try:
        a = PsdMatrix(a)
    except NotPsd as exc:
        raise ParseError(rd.pos, "[A]: %s" % exc) from exc
    gram = GramMatrix(spec, x)
    return ModelState(C=c, A=a, gram=gram, inst=None)
