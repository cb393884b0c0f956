"""Exact finite model of the distinguished isometry representation.

Level N is the N-dimensional space V_N of step functions on the circle that
are constant on the intervals [i/N, (i+1)/N); its normalized indicator basis
is written e_i^N.  The generator monomial (r, j) acts exactly by

    e_i^N  |->  e_{j*N + i}^{N*dim(r)}

so every operator built from the generators has entries that are exact
scalars (0/1 patterns times coefficients) as long as adjoints only ever land
on integral levels.  ``evaluate`` therefore demands a base level divisible by
each term's right-fiber dimension and reports the minimal valid choice when
refused.  On a twisted system a generator of fiber r acts as S (x) lambda_r,
with lambda_r unitary; ``evaluate`` and ``generator_operator`` refuse it,
and ``vector_operator`` gives the factor S.

A term x y* with fibers (s, t) maps V_N into V_{N*dim(s)/dim(t)}.  Terms
whose dimension ratios agree land on the same output level and are summed as
matrices -- this is what makes the model blind to degree differences with
equal dimensions, the effect the nonsimplicity witnesses exercise.  Terms at
distinct output levels are reported as separate blocks of an
``OperatorFamily``; they are never summed, because comparing across levels
would need irrational refinement factors.  "Every block zero" is the family's
(sound) zero test.  Equality of step operators at one level only certifies
equality on that level's subspace.

Operators hold diagonal runs, and ``evaluate`` raises each run of the
element to one run of its output level (see ``runs``), so it costs per run,
not per term or stripe entry, and a zero test costs the same at every level
and every fiber: a Cuntz sum minus I raises and sweeps two runs.  Swept
runs are maximal, and a raised run that continues the previous run of its
level with an identical coefficient lengthens it.  Elements are
valid by construction (see ``AlgebraElement``), so evaluation checks
nothing.
``StepOperator.entries`` expands the runs into one dict entry per cell,
which does cost the level: the cell view of the benchmark's counters and
the tests.  The CLI prints a block from its runs by ``runs.cells``.

``evaluate`` is the one step evaluator.  Given a ``CharacterTwist`` it
evaluates the twisted representation instead, in which the generators of
fiber r are scaled by the character's value on r: each term x y* of degree g
then carries the character's phase on g, and the entries live in the common
field of the spec and the character.  ``evaluate_twisted`` is the same call
with the twist first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import runs as run_ops
from .scalars import common_field, field_of
from .system import BasisMonomial, SystemSpec, sub_degree


class UnsupportedRepresentationError(ValueError):
    """Raised when evaluating an element or a generator of a twisted system."""


class LevelError(ValueError):
    """Raised when a base level misses a required divisor."""

    def __init__(self, base_level: int, minimal: int):
        if base_level < 1:
            message = f"base level must be a positive integer, got {base_level}"
        else:
            message = (
                f"base level {base_level} is not divisible by {minimal}; "
                f"the minimal valid base level is {minimal}"
            )
        super().__init__(message)
        self.minimal = minimal


class StepOperator:
    """A sparse matrix V_(level_in) -> V_(level_out) held as swept runs.

    ``StepOperator(level_in, level_out, entries)`` takes a dict
    {(row, col): scalar}; the kernels pass ``runs=`` already swept.
    Composition intersects runs pairwise, and two runs meet in at most one.
    """

    __slots__ = ("level_in", "level_out", "runs")

    def __init__(self, level_in: int, level_out: int, entries=None, *, runs=None):
        self.level_in = level_in
        self.level_out = level_out
        if runs is None:
            runs = run_ops.sweep([(r, c, 1, v) for (r, c), v in entries.items()])
        self.runs = runs

    @property
    def entries(self) -> dict:
        """{(row, col): scalar}, one key per cell the runs cover."""
        return {(r + u, c + u): v for r, c, n, v in self.runs for u in range(n)}

    def is_zero(self) -> bool:
        return not self.runs

    def conj_transpose(self) -> "StepOperator":
        return StepOperator(
            self.level_out, self.level_in, runs=tuple(sorted(map(run_ops.adjoint, self.runs)))
        )

    def compose(self, other: "StepOperator") -> "StepOperator":
        """self o other; other's output level must match self's input level."""
        if other.level_out != self.level_in:
            raise ValueError(
                f"cannot compose: inner levels differ "
                f"({other.level_out} vs {self.level_in})"
            )
        runs = run_ops.product(self.runs, other.runs)
        return StepOperator(other.level_in, self.level_out, runs=runs)

    def equal(self, other: "StepOperator") -> bool:
        """Same levels, and the sweep of the difference is empty."""
        return (
            self.level_in == other.level_in
            and self.level_out == other.level_out
            and run_ops.equal(self.runs, other.runs)
        )


@dataclass(frozen=True)
class OperatorFamily:
    """Evaluation result: one StepOperator block per output level."""

    base_level: int
    blocks: dict  # level_out -> StepOperator

    def is_zero(self) -> bool:
        return all(op.is_zero() for op in self.blocks.values())

    def single(self) -> StepOperator:
        nonzero = [op for op in self.blocks.values() if not op.is_zero()]
        if not nonzero:
            return StepOperator(self.base_level, self.base_level, {})
        if len(nonzero) > 1:
            raise ValueError(
                "element evaluates to blocks at several output levels: "
                + ", ".join(str(lv) for lv in sorted(self.blocks))
            )
        return nonzero[0]

    def equal(self, other: "OperatorFamily") -> bool:
        if self.base_level != other.base_level:
            return False
        for lv in self.blocks.keys() | other.blocks.keys():
            a, b = self.blocks.get(lv), other.blocks.get(lv)
            if a is None or b is None:
                if not (a or b).is_zero():
                    return False
            elif not a.equal(b):
                return False
        return True


def _require_untwisted(spec: SystemSpec):
    if spec.is_twisted:
        raise UnsupportedRepresentationError(
            "the step-function model exists for untwisted systems only"
        )


def generator_operator(spec: SystemSpec, x: BasisMonomial, level: int) -> StepOperator:
    """The monomial isometry at a given level: e_i |-> e_(index*level + i)."""
    _require_untwisted(spec)
    spec.monomial(x.fiber, x.index)
    if level < 1:
        raise ValueError("levels are positive integers")
    run = (x.index * level, 0, level, spec.field.one)
    return StepOperator(level, level * spec.dim(x.fiber), runs=(run,))


def vector_operator(spec: SystemSpec, v, level: int) -> StepOperator:
    """The isometry S_v of a fiber vector at a given level.

    Linear extension of generator_operator: column t holds the vector's
    coefficients in the stripe pattern index*level + t, one run per support
    index.  On a twisted system i(v) acts as T_v = S_v (x) lambda_r for v in
    fiber r, with lambda_r unitary, so T_u* T_v = S_u* S_v (x) lambda_r*
    lambda_s is zero exactly when S_u* S_v is.
    """
    if level < 1:
        raise ValueError("levels are positive integers")
    runs = tuple(sorted((idx * level, 0, level, c) for idx, c in v.entries.items()))
    return StepOperator(level, level * spec.dim(v.fiber), runs=runs)


def minimal_level(a) -> int:
    """Least base level at which every term's adjoint lands integrally:
    the lcm of the right fibers' dimensions, read from the fiber pairs."""
    dims = a.spec._dim
    out = 1
    for fiber in {fy for _, fy, _ in a.pairs}:
        out = math.lcm(out, dims(fiber))
    return out


def evaluate(
    a, base_level: int | None = None, twist: CharacterTwist | None = None
) -> OperatorFamily:
    """Evaluate an algebra element on V_(base_level), blocks keyed by output level.

    With a ``twist`` the generators are scaled by the character, so each term
    x y* of degree g is multiplied by ``twist.phase(g)`` in the common field
    of the spec and the character.
    """
    spec = a.spec
    pairs = a.pairs
    if twist is not None:
        if len(twist.values) != spec.k:
            raise ValueError("character length does not match the generator count")
        field = spec.field
        for v in twist.values:
            field = common_field(field, field_of(v))
        pairs = [
            (fx, fy, [(r, c, n, field.coerce(v)) for r, c, n, v in runs]) for fx, fy, runs in pairs
        ]
    _require_untwisted(spec)
    # a given level is checked against each right fiber as its pair is
    # placed; the minimal level is walked for only when it is needed
    if base_level is None:
        base_level = minimal_level(a)
    elif base_level < 1:
        raise LevelError(base_level, minimal_level(a))

    def place(pairs):
        out = []
        for fx, fy in pairs:
            stripe, rest = divmod(base_level, spec._dim(fy))
            if rest:
                raise LevelError(base_level, minimal_level(a))
            phase = None if twist is None else field.coerce(twist.phase(sub_degree(fx, fy)))
            out.append((stripe * spec._dim(fx), stripe, phase))
        return out

    # a block whose runs cancel is kept: it still names its output level
    blocks = run_ops.raise_terms(pairs, place)
    out = {lv: StepOperator(base_level, lv, runs=runs) for lv, runs in blocks.items()}
    return OperatorFamily(base_level, out)


# ---------------------------------------------------------------------------
# character twists of the representation
# ---------------------------------------------------------------------------


class CharacterTwist:
    """A character of Z^k: one modulus-one scalar per generator.

    The twisted representation scales the generator monomial (r, x) by
    prod_a lambda_a^(r_a); on a term xy* of degree g this is the phase
    prod_a lambda_a^(g_a) with negative powers taken as conjugates.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(values)
        if not values:
            raise ValueError("a character needs one value per generator")
        for v in values:
            if not (v * v.conj()).is_one():
                raise ValueError(f"character value {v!r} is not of modulus one")
        self.values = values

    def phase(self, degree) -> object:
        out = None
        for v, g in zip(self.values, degree):
            if g == 0:
                continue
            base = v if g > 0 else v.conj()
            for _ in range(abs(g)):
                out = base if out is None else out * base
        if out is None:
            out = field_of(self.values[0]).one
        return out

    def __repr__(self):
        return f"CharacterTwist({list(self.values)})"


def evaluate_twisted(
    a, twist: CharacterTwist, base_level: int | None = None
) -> OperatorFamily:
    """``evaluate`` through the character-scaled generators."""
    return evaluate(a, base_level, twist=twist)
