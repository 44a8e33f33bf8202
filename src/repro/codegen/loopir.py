"""A small schedulable LoopIR for plan-specialized kernel generation.

The IR is deliberately tiny — the SYS_ATL/Exo idea scaled to what this
host pipeline needs.  A :class:`Program` is a named loop nest over bit
planes / tile rows / tile-row groups whose leaves are straight-line
numpy statements (:class:`Line`); loops over *compile-time-constant*
domains (bit planes, the tile groups of a measured census) can be
rewritten by the schedule transforms in :mod:`repro.codegen.lower`:

* ``unroll`` replaces a constant-trip-count :class:`Loop` with its
  instantiated bodies (bit-plane loops become per-plane statements with
  literal plane indices);
* skip-loop specialization replaces a masked tile loop with per-group
  blocks that iterate a precomputed non-zero-tile index list baked into
  the program's :attr:`Program.env`.

Rendering (:meth:`Program.source`) produces plain Python/numpy source —
no new dependencies — which :func:`repro.codegen.emit.compile_program`
turns into a callable.  :meth:`Program.digest` is the content key the
kernel cache stores compiled callables under: it covers the rendered
source, every ``env`` constant's bytes, and the emitter version, so a
mutated census or bitwidth re-keys (and therefore recompiles) while an
identical plan always hits.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from ..errors import ConfigError

__all__ = [
    "Block",
    "Line",
    "Loop",
    "Program",
    "substitute",
    "unroll",
]

#: Bumped whenever rendered-source semantics change, so stale cached
#: kernels from an older emitter can never be replayed.
EMIT_VERSION = 2


class Stmt:
    """Base class of every IR statement."""


@dataclass(frozen=True)
class Line(Stmt):
    """One straight-line statement, rendered verbatim.

    Index expressions inside the code are plain Python; loop variables
    appear as ordinary names so :func:`substitute` can instantiate them
    with literals during unrolling.
    """

    code: str


@dataclass(frozen=True)
class Block(Stmt):
    """A labelled straight-line group (renders a comment + its body)."""

    label: str
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Loop(Stmt):
    """A loop nest level.

    ``count`` is an ``int`` for compile-time-constant domains (bit
    planes, tile groups — the unrollable ones) or a source expression
    string for runtime domains (row blocks).  ``axis`` names what the
    loop walks (``"plane"``, ``"rows"``, ``"tile-rows"``, ``"groups"``)
    — transforms match on it.
    """

    var: str
    count: int | str
    body: tuple[Stmt, ...]
    axis: str = "rows"


@dataclass(frozen=True)
class Program:
    """A lowered kernel: loop nest + baked constants + applied schedule.

    Attributes
    ----------
    name:
        Python identifier of the emitted function.
    args:
        Positional argument names of the emitted function.
    body:
        The statement tree.
    env:
        Compile-time constant arrays (precomputed non-zero-tile index
        lists, gather maps) bound into the compiled namespace by name.
    schedule:
        Names of the schedule transforms applied during lowering, in
        order — the provenance trail tests and docs introspect.
    """

    name: str
    args: tuple[str, ...]
    body: tuple[Stmt, ...]
    env: Mapping[str, np.ndarray] = field(default_factory=dict)
    schedule: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ConfigError(f"program name must be an identifier, got {self.name!r}")
        for key in self.env:
            if not key.isidentifier():
                raise ConfigError(f"env name must be an identifier, got {key!r}")

    # ------------------------------------------------------------------ #
    def source(self) -> str:
        """Render the program as the source of one Python function."""
        lines = [f"def {self.name}({', '.join(self.args)}):"]
        rendered = list(_render(self.body, indent=1))
        lines.extend(rendered if rendered else ["    pass"])
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Content key of the compiled kernel: source + env + emitter version.

        Two programs share a digest exactly when they would compile to
        byte-identical behavior — same rendered source, same baked
        constants, same emitter.  A mutated census or bitwidth changes
        the source and/or the env bytes, hence the digest, hence forces
        a recompile; an identical plan always reuses the cached kernel.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(f"emit-version:{EMIT_VERSION}\n".encode())
        h.update(self.source().encode())
        for key in sorted(self.env):
            arr = np.ascontiguousarray(self.env[key])
            h.update(f"{key}:{arr.dtype}:{arr.shape}\n".encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def loops(self) -> Iterator[Loop]:
        """Every loop in the tree, outermost first (for introspection)."""
        yield from _iter_loops(self.body)


def _render(stmts: tuple[Stmt, ...], indent: int) -> Iterator[str]:
    pad = "    " * indent
    for stmt in stmts:
        if isinstance(stmt, Line):
            yield pad + stmt.code
        elif isinstance(stmt, Block):
            if stmt.label:
                yield pad + f"# {stmt.label}"
            yield from _render(stmt.body, indent)
        elif isinstance(stmt, Loop):
            yield pad + f"for {stmt.var} in range({stmt.count}):"
            yield from _render(stmt.body, indent + 1)
        else:
            raise ConfigError(f"cannot render IR node {type(stmt).__name__}")


def _iter_loops(stmts: tuple[Stmt, ...]) -> Iterator[Loop]:
    for stmt in stmts:
        if isinstance(stmt, Loop):
            yield stmt
            yield from _iter_loops(stmt.body)
        elif isinstance(stmt, Block):
            yield from _iter_loops(stmt.body)


def substitute(stmts: tuple[Stmt, ...], var: str, value: object) -> tuple[Stmt, ...]:
    """Replace every whole-word occurrence of ``var`` with ``value``.

    The instantiation primitive unrolling is built on: loop variables are
    ordinary names in :class:`Line` code, so substituting a literal for
    the name specializes the body to one iteration.
    """
    pattern = re.compile(rf"\b{re.escape(var)}\b")
    replacement = str(value)
    out: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Line):
            out.append(Line(pattern.sub(replacement, stmt.code)))
        elif isinstance(stmt, Block):
            out.append(Block(stmt.label, substitute(stmt.body, var, value)))
        elif isinstance(stmt, Loop):
            if stmt.var == var:  # inner loop shadows the name
                out.append(stmt)
                continue
            count = stmt.count
            if isinstance(count, str):
                count = pattern.sub(replacement, count)
            out.append(Loop(stmt.var, count, substitute(stmt.body, var, value), stmt.axis))
        else:
            raise ConfigError(f"cannot substitute into {type(stmt).__name__}")
    return tuple(out)


def unroll(loop: Loop) -> Block:
    """Fully unroll a constant-trip-count loop into instantiated bodies.

    The bit-plane schedule transform: a ``Loop`` over a plan's concrete
    bitwidth becomes one statement group per plane, each with the plane
    index as a literal — no per-iteration Python loop overhead and every
    index expression constant-folded by the emitted source itself.
    """
    if not isinstance(loop.count, int):
        raise ConfigError(
            f"cannot unroll loop over runtime domain range({loop.count!r})"
        )
    body: list[Stmt] = []
    for value in range(loop.count):
        body.append(Block(f"{loop.var} = {value}", substitute(loop.body, loop.var, value)))
    return Block(f"unrolled {loop.axis} loop {loop.var}", tuple(body))
