"""Simplicity analysis: dimension injectivity, classification, witnesses,
and the orthogonal-compression construction behind them.

The dimension function d(s) = prod m_a^(s_a) is injective on N^k exactly
when the exponent matrix of the generator dimensions over their coprime
base has rank k (a generator of dimension one is a zero column).  The base
is built with gcds alone, so no dimension is ever factored.  Injectivity
forces every twisted lexicographic system's algebra to be simple and
purely infinite; a dimension collision (s, t) yields the witness
b = i(s,0) - i(t,0) that the distinguished representation kills but a
character-twisted companion does not.  For two generators the collision
is always a perfect-power relation m = l^a, n = l^b and the algebra is a
matrix-circle tensor.  The annihilation construction behind simplicity and
pure infiniteness compresses x y* (p(x) != p(y)), and for nonzero x and y
whether the compression vanishes depends on their fibers alone, so its
instances hold pairs of basis monomials and read only their fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, linalg
from . import runs as run_ops
from .scalars import cyclotomic_field
from .system import (
    BasisMonomial,
    Fiber,
    FiberVector,
    SystemSpec,
    add_fibers,
    max_fiber,
    sub_degree,
)
from .steprep import CharacterTwist


class HypothesisViolationError(ValueError):
    """An annihilation step hit fibers of equal dimension."""


# ---------------------------------------------------------------------------
# dimension function
# ---------------------------------------------------------------------------


def _strip(n: int, b: int) -> tuple[int, int]:
    """(e, n // b^e) for the largest e with b^e | n, where b > 1.

    Dividing by b, b^2, b^4, ... takes log e steps rather than e.
    """
    if n % b:
        return 0, n
    e, n = _strip(n // b, b * b)
    if n % b:
        return 2 * e + 1, n
    return 2 * e + 2, n // b


def _coprime_base(nums) -> tuple[int, ...]:
    """Pairwise coprime integers > 1, ascending, of which every member of
    nums is a product of powers.

    A member with a common factor g with the base gives way, together with
    that base member, to g and the two of them stripped of g.  The product
    of all members falls at every split, so this ends; it takes gcds alone,
    never a factorization.
    """
    base: list[int] = []
    pending = [n for n in nums if n > 1]
    while pending:
        x = pending.pop()
        for b in base:
            g = math.gcd(x, b)
            if g > 1:
                base.remove(b)
                pending += [c for c in (g, _strip(x, g)[1], _strip(b, g)[1]) if c > 1]
                break
        else:
            base.append(x)
    return tuple(sorted(base))


def exponent_matrix(gen_dims) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(base, rows): rows[i][a] = multiplicity of base[i] in gen_dims[a],
    over the coprime base of the generator dimensions.

    It decides what the prime-exponent matrix would.  Let P be the prime
    exponent matrix, B this one, and V the prime exponents of the base
    members.  Then P = V.B, and V's columns have disjoint nonzero supports
    (the members are pairwise coprime and > 1), so ker P = ker B.  The two
    matrices therefore have the same row space and the same reduced row
    echelon form: rank, kernel vector, witness and power base are unchanged.
    """
    base = _coprime_base(gen_dims)
    return base, tuple(tuple(_strip(m, b)[0] for m in gen_dims) for b in base)


def rank_and_kernel(rows, k: int) -> tuple[int, tuple[int, ...] | None]:
    """(rank, kernel) of an integer matrix with k columns, from one
    ``linalg.nullspace`` call over Q: rank = k - nullity, and kernel is the
    first kernel vector scaled to a primitive integer vector whose first
    nonzero entry is positive, or None when the rank is k."""
    basis = linalg.nullspace(rows, k)
    if not basis:
        return k, None
    vec = basis[0]
    denom = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * denom) for f in vec]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return k - len(basis), tuple(v // g for v in ints)


def _collision(gen_dims, kernel):
    """A fiber pair s != t of equal dimension, or None: (e_a, 2e_a) for the
    first dimension-one generator, else the positive and negative parts of
    the primitive kernel vector."""
    for a, m in enumerate(gen_dims):
        if m == 1:
            e_a = tuple(1 if i == a else 0 for i in range(len(gen_dims)))
            return e_a, tuple(2 * c for c in e_a)
    if kernel is None:
        return None
    return tuple(max(v, 0) for v in kernel), tuple(max(-v, 0) for v in kernel)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Verdict plus the evidence that produced it.

    kind is one of 'SimplePurelyInfinite', 'TensorCircle', 'NonSimple',
    'Unknown'.  rank is the rank of the exponent matrix of gen_dims over
    their coprime base; ``exponent_matrix`` and ``rank_and_kernel`` give
    the matrix and its kernel.  TensorCircle carries power_base =
    (l, a, b); every non-injective verdict carries the witness fiber pair.
    The fields are what the CLI's ``classify`` record prints.
    """

    kind: str
    gen_dims: tuple
    twisted: bool
    rank: int
    witness: tuple | None
    power_base: tuple | None

    def verdict(self) -> str:
        if self.kind == "TensorCircle":
            return f"TensorCircle({self.power_base[0]})"
        return self.kind


def classify(spec: SystemSpec) -> Classification:
    """Decide simplicity from the generator dimensions and the twist.

    Injective dimension function: simple and purely infinite.  Untwisted
    collisions with two generators: a TensorCircle verdict (matrix algebra
    tensor continuous circle functions) when the coprime base has one
    member, else plain NonSimple.  Twisted collisions are undecided here
    and report Unknown.  Every non-injective verdict carries a witness pair.

    For two generators the power base is (l, a, b) with m = l^a, n = l^b,
    gcd(a, b) = 1, and l as large as possible; for m, n > 1 it exists
    exactly when log_m(n) is rational.  It is the lone member l of the
    coprime base with its exponent row (a, b): two powers of l refine only
    to powers of l, and a lone member l^h needs h | gcd(a, b) = 1.
    Conversely, a lone member c makes m and n powers of c, so l exists and
    c = l.  A dimension-one generator is a zero column, so (1, n) gives
    (n, 0, 1), (m, 1) gives (m, 1, 0), and (1, 1) has no base: NonSimple.
    """
    # one matrix and one reduction serve the rank, the witness and the
    # power base
    base, rows = exponent_matrix(spec.gen_dims)
    rank, kernel = rank_and_kernel(rows, spec.k)
    witness = _collision(spec.gen_dims, kernel)
    injective = witness is None

    common = dict(
        gen_dims=spec.gen_dims,
        twisted=spec.is_twisted,
        rank=rank,
        witness=witness,
        power_base=None,
    )
    if injective:
        return Classification(kind="SimplePurelyInfinite", **common)
    if spec.is_twisted:
        return Classification(kind="Unknown", **common)
    if spec.k == 2 and len(base) == 1:
        (a, b), = rows
        common["power_base"] = (base[0], a, b)
        return Classification(kind="TensorCircle", **common)
    return Classification(kind="NonSimple", **common)


# ---------------------------------------------------------------------------
# nonsimplicity witnesses
# ---------------------------------------------------------------------------


def nonsimplicity_witness(spec: SystemSpec, s, t):
    """The element b = i(s,0) - i(t,0) together with a separating character.

    Requires an untwisted spec and fibers s != t of equal dimension.  The
    distinguished representation evaluates b to zero; the returned character
    twist makes it nonzero.  The character is a root of unity of the
    smallest order q >= 2 not dividing some coordinate of s - t, placed on
    the first such coordinate.
    """
    s = spec.check_fiber(s)
    t = spec.check_fiber(t)
    if spec.is_twisted:
        raise ValueError("nonsimplicity witnesses require an untwisted spec")
    if s == t:
        raise ValueError("witness fibers must differ")
    if spec.dim(s) != spec.dim(t):
        raise ValueError(
            f"fibers must have equal dimension; got {spec.dim(s)} and {spec.dim(t)}"
        )
    b = algebra.isometry(spec, BasisMonomial(s, 0)) - algebra.isometry(
        spec, BasisMonomial(t, 0)
    )
    g = sub_degree(s, t)
    q = 2
    while all(c % q == 0 for c in g):
        q += 1
    slot = next(a for a, c in enumerate(g) if c % q != 0)
    try:
        field = spec.field
        zeta = field.root_of_unity(Fraction(1, q))
    except ValueError:
        field = cyclotomic_field(q)
        zeta = field.root_of_unity(Fraction(1, q))
    values = [field.one] * spec.k
    values[slot] = zeta
    return b, CharacterTwist(values)


# ---------------------------------------------------------------------------
# annihilation construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilationInstance:
    """Pairs (x_i, y_i) of basis monomials of unequal fibers plus a shift
    fiber c dominating every p(x_i), p(y_i); ``schedule`` holds the fiber
    pairs (c - p(x_i), c - p(y_i)) whose bases the construction pairs up."""

    pairs: tuple
    shift_fiber: Fiber
    schedule: tuple


def _monomial_fiber(spec: SystemSpec, z) -> Fiber:
    """The fiber of a pair member, which must be a basis monomial, checked
    by ``spec.monomial`` with its index."""
    if not isinstance(z, BasisMonomial):
        raise TypeError(f"expected a basis monomial, got {z!r}")
    return spec.monomial(*z).fiber


def annihilation_instance(spec: SystemSpec, pairs, shift_fiber=None) -> AnnihilationInstance:
    """The instance of pairs (x, y) of basis monomials, each member checked
    once, so that the construction and the check take its schedule's
    fibers as checked.  Both read only the fibers: the vector that
    ``annihilating_vector`` builds kills u v* for all nonzero vectors u
    and v of the fibers of x and y (see ``verify_annihilation``)."""
    pairs = tuple((x, y) for x, y in pairs)
    fibers = [(_monomial_fiber(spec, x), _monomial_fiber(spec, y)) for x, y in pairs]
    if shift_fiber is None:
        shift_fiber = (0,) * spec.k
        for fx, fy in fibers:
            shift_fiber = add_fibers(shift_fiber, add_fibers(fx, fy))
    shift_fiber = spec.check_fiber(shift_fiber)
    schedule = []
    for i, (fx, fy) in enumerate(fibers):
        if fx == fy:
            raise ValueError(f"pair {i}: fibers must differ, both are {fx}")
        s, t = sub_degree(shift_fiber, fx), sub_degree(shift_fiber, fy)
        for f, rest in ((fx, s), (fy, t)):
            if min(rest) < 0:
                raise ValueError(
                    f"pair {i}: shift fiber {shift_fiber} does not dominate {f}"
                )
        schedule.append((s, t))
    return AnnihilationInstance(pairs, shift_fiber, tuple(schedule))


def _orthogonality_step(j: int, dim_r: int, f: int, dim_s: int, g: int, dim_t: int) -> int:
    """One induction step: the column l such that v e(t;l) kills the
    scheduled pair (e(s;f), e(t;g)), for v = a e(r;j) and dim s < dim t.

    The extension of v must be orthogonal to every row of a dim s x dim t
    matrix whose cell (l2, l1) sums v_j1 conj(v_j2) over the basis w of r,
    where j1, l1 = divmod(g dim r + w, dim t) and j2, l2 = divmod(f dim r +
    w, dim s), times one multiplier phase that is left out: a nonzero
    factor of the whole matrix leaves its kernel alone.

    v has support 1, so j1 = j2 = j, and the matrix is nonzero only on the
    window lo <= w < hi where both quotients are j.  There l1 and l2 step
    together, so the matrix is one diagonal run of length hi - lo, or none,
    a partial permutation.  Its kernel holds the unit vector at the first
    column the run leaves uncovered, so a step costs O(1), never dim t.
    ``annihilating_vector`` calls it only for the steps ``_next_window``
    names; every other step has an empty window and column 0.
    """
    g_off, f_off = g * dim_r, f * dim_r
    lo = max(0, j * dim_t - g_off, j * dim_s - f_off)
    hi = min(dim_r, (j + 1) * dim_t - g_off, (j + 1) * dim_s - f_off)
    # a run from column 0 covers the columns below its length
    return hi - lo if lo < hi and g_off + lo == j * dim_t else 0


def _next_window(j: int, dim_r: int, dim_s: int, dim_t: int, start: int):
    """The first basis pair (f, g) of a scheduled pair of fibers, of
    dimensions dim_s and dim_t, at or past the schedule position
    ``start`` = f dim_t + g whose window can be nonempty for v = a e(r;j),
    or None.

    The window needs a w < dim r with j dim_s <= f dim r + w < (j + 1) dim_s,
    and likewise for g and dim_t, so f lies in [j dim_s // dim r,
    ((j + 1) dim_s - 1) // dim r], and g in the same range for dim_t: the
    leading digits of x = j / dim r in those bases, give or take one.  A
    step at column 0 keeps x, so every pair left out takes column 0.
    """
    f_lo, f_hi = j * dim_s // dim_r, ((j + 1) * dim_s - 1) // dim_r
    g_lo, g_hi = j * dim_t // dim_r, ((j + 1) * dim_t - 1) // dim_r
    f, g = divmod(start, dim_t)
    if f < f_lo:
        f, g = f_lo, g_lo
    elif g > g_hi:
        f, g = f + 1, g_lo
    else:
        g = max(g, g_lo)
    return (f, g) if f <= f_hi else None


def annihilating_vector(spec: SystemSpec, instance: AnnihilationInstance) -> FiberVector:
    """A vector w whose compression kills every scheduled monomial pair.

    Schedules every basis pair of (c - p(x_i), c - p(y_i)) per instance pair
    and extends w one step at a time by a basis vector e(u;l) of the pair's
    larger fiber u, from the unit of the trivial fiber.  So w is a
    coefficient times a basis monomial e(r;j), unnormalized, and the state
    is the integers j and dim r.

    A step at column 0 maps them to j dim u and dim r dim u: it keeps the
    position x = j / dim r.  Only the steps ``_next_window`` names can take
    another column, so only those are computed, each against the state it
    meets; the k steps skipped before one multiply j and dim r by dim u^k
    at once.  A pair of n steps adds n u to the fiber r, and omega being
    bilinear, the product of its phases omega(r + i u, u) over i < n is
    omega(n r + n(n - 1)/2 u, u).  So the cost follows the steps that can
    move x and the digits of dim r, not the length of the schedule.  On a
    float spec that one phase rounds once where n steps rounded n times.
    """
    coeff, fiber, j, dim = spec.field.one, (0,) * spec.k, 0, 1
    for s, t in instance.schedule:
        dim_s, dim_t = spec._dim(s), spec._dim(t)
        if dim_s == dim_t:
            raise HypothesisViolationError(
                f"scheduled pair ({BasisMonomial(s, 0)!r}, {BasisMonomial(t, 0)!r}) "
                f"has fibers of equal dimension {dim_s}"
            )
        swap = dim_s > dim_t
        ext, dim_ext, dim_small = (s, dim_s, dim_t) if swap else (t, dim_t, dim_s)
        steps, done = dim_s * dim_t, 0
        while (pair := _next_window(j, dim, dim_s, dim_t, done)) is not None:
            f, g = pair
            pos = f * dim_t + g
            scale = dim_ext ** (pos - done)
            j, dim = j * scale, dim * scale
            a, b = (g, f) if swap else (f, g)
            col = _orthogonality_step(j, dim, a, dim_small, b, dim_ext)
            j, dim, done = j * dim_ext + col, dim * dim_ext, pos + 1
        scale = dim_ext ** (steps - done)
        j, dim = j * scale, dim * scale
        if spec.is_twisted:
            half = steps * (steps - 1) // 2
            coeff = spec._phase(tuple(steps * r + half * e for r, e in zip(fiber, ext)), ext) * coeff
        fiber = tuple(r + steps * e for r, e in zip(fiber, ext))
    return FiberVector(fiber, dim, {j: coeff}, spec.field.zero)


def verify_annihilation(
    spec: SystemSpec, instance: AnnihilationInstance, w: FiberVector
) -> bool:
    """True when alpha_c(Q) (x y*) alpha_c(Q) = 0 for every pair (x, y).

    Q is the rank-one projection along w and c the shift fiber.  With
    V = i(w), alpha_c(V) = sum_f i(f) V i(f)* over the basis f of c
    satisfies alpha_c(V)* alpha_c(V) = <w,w> 1: it is sqrt<w,w> times an
    isometry, and alpha_c(Q) = alpha_c(V) alpha_c(V)* / <w,w>.  So the
    compression vanishes exactly when alpha_c(V)* (x y*) alpha_c(V) does,
    and, the i(f) having orthogonal ranges, exactly when every inner factor
    V* i(f)* i(x) i(y)* i(f') V does.

    Only the schedule's pairs contribute.  i(f)* i(x) is nonzero only when
    f = e_j f1 with x_j != 0 and f1 in B(c - p(x)); it is then a unit times
    x_j i(f1)*, and V* i(f1)* is a unit times i(f1 w)*.  So for nonzero x
    and y the compression vanishes exactly when i(f1 w)* i(g1 w) = 0 for
    every f1 in B(a) and g1 in B(b), where a = c - p(x) and b = c - p(y).

    Each product is decided by index ranges.  With m = max(a, b),
    i(u)* i(v) for u = f1 w and v = g1 w is a sum of terms of the one fiber
    pair (m - a, m - b), each its own run in the step model, so it is zero
    exactly when S_u* S_v is.  Let L_out = dim(m - a), L_in = dim(m - b)
    and r = p(w).  The piece of f1 w at support index j is omega(a, r) w_j
    times the monomial of index f1 dim(w) + j, whose isometry at the level
    M = dim(m) dim(w) covers [(f1 dim(w) + j) L_out, +L_out); a piece of
    g1 w covers a range of length L_in.  Two pieces meet in one run over
    the overlap of their ranges, or not at all, so S_u* S_v is the sweep of
    the runs of its overlapping piece pairs, summed as composing the step
    operators sums them: right pieces outer, left inner, in index order.
    Ranges overlap when the difference d of their starts has
    -L_out < d < L_in; d is dim(w) (f1 L_out - g1 L_in) plus a difference
    of support offsets, and only d is formed.  In units of dim(w), f1 w
    lies in [f1 L_out, (f1 + 1) L_out) and g1 w in [g1 L_in, (g1 + 1) L_in):
    two partitions of one interval, which overlap in at most
    dim(a) + dim(b) - 1 block pairs.  So a pair costs that many times
    |supp w|^2 window tests, whatever dim(w).

    On a twisted spec the generators of fiber r act as T = S (x) lambda_r,
    lambda being the twisted regular representation of Z^k by unitaries,
    and T_u* T_v = S_u* S_v (x) lambda_p(u)* lambda_p(v) is zero exactly
    when S_u* S_v is: only the multiplier phases of the pieces enter.
    """
    r = spec.check_fiber(w.fiber)
    support = sorted(w.entries.items())
    for a, b in instance.schedule:
        m = max_fiber(a, b)
        level_out, level_in = spec._dim(sub_degree(m, a)), spec._dim(sub_degree(m, b))
        phase_out, phase_in = spec._phase(a, r), spec._phase(b, r)
        # (difference of the pieces' starts past their blocks', left and
        # right coefficient), right pieces outer
        pieces = [
            (j * level_out - k * level_in, (phase_out * u).conj(), phase_in * v)
            for k, v in support
            for j, u in support
        ]
        # f1 w lies in the block [f1 L_out, (f1 + 1) L_out) in units of dim(w),
        # which meets the blocks of g1 w from first to last
        for f1 in range(spec._dim(a)):
            first, last = f1 * level_out // level_in, ((f1 + 1) * level_out - 1) // level_in
            for g1 in range(first, last + 1):
                shift = w.dim * (f1 * level_out - g1 * level_in)
                if _block_product(shift, pieces, level_out, level_in):
                    return False
    return True


def _block_product(shift: int, pieces, level_out: int, level_in: int) -> tuple:
    """The swept runs of i(f1 w)* i(g1 w), whose block starts differ by
    ``shift``: one window test per pair of pieces.  Pieces whose starts
    differ by d meet where -L_out < d < L_in, in the run that the
    composition of their step operators would hold."""
    runs = []
    for offset, left, right in pieces:
        d = shift + offset
        if -level_out < d < level_in:
            row, col = max(-d, 0), max(d, 0)
            runs.append((row, col, min(level_out - row, level_in - col), left * right))
    return run_ops.sweep(runs) if runs else ()
