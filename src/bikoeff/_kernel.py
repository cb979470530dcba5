"""Straight-line Python traced from scalar code: the polish objective's kernel.

``trace(fn, params, inputs)`` runs ``fn(params, inputs, gate)`` once on
recording scalars (:class:`Sym`): floats named in ``params``, and inputs of
the kinds, float or complex, in ``inputs``.  Each ``+ - * /``, ``** int``,
negation, ``abs``, ``conjugate()``, ``.real`` and ``.imag`` becomes one
line, in the order performed and with its operands as given; only exact
identities fold (``.real``, ``.imag``, ``conjugate()`` of a float, a
repeated line).  ``gate(err, output)`` becomes ``if not err > 0: return
output``.  Parameter-only lines run once in ``build(*params)``, the rest in
the ``kernel(*inputs)`` it returns, and unread lines that cannot raise are
dropped, so Python performs the traced code's IEEE operations on the same
operand types, bit for bit.  What it could not replay exactly raises
TypeError: a comparison, ``bool()``, a non-int power, another operand.
``build.source`` is the code compiled.
"""

from __future__ import annotations

import math

_FORMATS = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "div": "{} / {}", "pow": "{} ** {}",
            "neg": "-{}", "abs": "abs({})", "conj": "{}.conjugate()", "real": "{}.real", "imag": "{}.imag"}


class Sym:
    """A recording float or complex; ``phase`` is 1 where it depends on the inputs, else 0."""

    __slots__ = ("tape", "name", "kind", "phase", "op", "args")

    def __init__(self, tape, name, kind, phase, op=None, args=()):
        self.tape, self.name, self.kind, self.phase, self.op, self.args = tape, name, kind, phase, op, args

    __add__, __radd__ = (lambda a, b: _record("add", a, b)), (lambda a, b: _record("add", b, a))
    __sub__, __rsub__ = (lambda a, b: _record("sub", a, b)), (lambda a, b: _record("sub", b, a))
    __mul__, __rmul__ = (lambda a, b: _record("mul", a, b)), (lambda a, b: _record("mul", b, a))
    __truediv__, __rtruediv__ = (lambda a, b: _record("div", a, b)), (lambda a, b: _record("div", b, a))
    __neg__ = lambda self: _record("neg", self)  # noqa: E731
    __abs__ = lambda self: _record("abs", self, kind=float)  # noqa: E731
    __pow__ = lambda self, n: _record("pow", self, n)  # noqa: E731
    conjugate = lambda self: self if self.kind is float else _record("conj", self)  # noqa: E731
    real = property(lambda self: self if self.kind is float else _record("real", self, kind=float))
    imag = property(lambda self: 0.0 if self.kind is float else _record("imag", self, kind=float))

    def _refuse(self, *_):
        raise TypeError("a comparison or truth value of a recording scalar cannot be replayed")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse


def _constant(c):
    if type(c) not in (int, float) or not math.isfinite(c):
        raise TypeError(f"cannot record the operand {c!r} of type {type(c).__name__}")
    return f"({c!r})" if repr(c).startswith("-") else repr(c)


def _record(op, *args, kind=None):
    if op == "pow" and type(args[1]) is not int:
        raise TypeError(f"cannot record a power to {type(args[1]).__name__}")
    syms = [a for a in args if isinstance(a, Sym)]
    key = (op, *(a.name if isinstance(a, Sym) else _constant(a) for a in args))
    tape = syms[0].tape
    if key not in tape:  # the same operation on the same operands gives the same result
        kind = kind or (complex if any(s.kind is complex for s in syms) else float)
        tape[key] = Sym(tape, f"v{len(tape)}", kind, max(s.phase for s in syms), op, args)
    return tape[key]


def _text(value, live):
    """``value``, a Sym or a constant, as source; a Sym joins ``live``."""
    if isinstance(value, Sym):
        live.add(value.name)
        return value.name
    return _constant(value)


def trace(fn, params, inputs):
    """``build(*params)`` returning ``kernel(*inputs)``, traced from ``fn(params, inputs, gate)``."""
    tape = {}  # operation key, or position for a gate or return, to its entry, in recorded order
    xs = [Sym(tape, f"x{k}", kind, 1) for k, kind in enumerate(inputs)]

    def gate(err, output):
        tape[len(tape)] = err, output

    tape[len(tape)] = None, fn([Sym(tape, name, float, 0) for name in params], xs, gate)
    live, prelude, body = set(), [], []
    for entry in reversed(tape.values()):
        if not isinstance(entry, Sym):
            err, output = entry
            ret = f"return {_text(output, live)}"
            body.append(ret if err is None else f"if not {_text(err, live)} > 0: {ret}")
        elif entry.name in live or entry.op in ("div", "pow", "abs"):  # these can raise
            line = f"{entry.name} = " + _FORMATS[entry.op].format(*(_text(a, live) for a in entry.args))
            (body if entry.phase else prelude).append(line)
    source = "\n".join([f"def build({', '.join(params)}):", *("    " + line for line in prelude[::-1]),
                        f"    def kernel({', '.join(x.name for x in xs)}):",
                        *("        " + line for line in body[::-1]), "    return kernel", ""])
    exec(compile(source, "<kernel>", "exec"), namespace := {})
    namespace["build"].source = source
    return namespace["build"]
