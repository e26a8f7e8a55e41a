"""The criterion test: coupling existence as a linear feasibility problem.

Selective influences hold for a finite system if and only if there is a
single joint pmf over one coupling variable per (input, level) pair whose
appropriate marginals reproduce every observed treatment distribution.  That
existence question is ``M q = p, q >= 0`` for a Boolean matrix ``M`` built
purely from the design:

* one row per (allowable treatment, output-value tuple);
* one column per assignment of values to all coupling coordinates;
* entry 1 iff the assignment, restricted to the coordinates selected by the
  row's treatment, equals the row's output tuple.

M's rows are heavily redundant: its rank is the number of
joint-distribution-criterion marginals, prod(m_k (v_k - 1) + 1) on a fully
crossed design.  ``FeasibilitySystem.basis`` picks a basis of M's row space
from the design alone.  M and its basis depend only on the design's level
positions and the outputs' value counts, so they are built once per design
index and shared, read-only, by every system on a design with those
positions, whatever its labels (the last ``DESIGN_CACHE_SIZE`` designs stay
cached).  The solver, a dense phase-I simplex (artificial variables, kept
implicit; Dantzig pricing with Bland's rule during stalls), pivots the
problem restricted to the support of p: the basis rows with p > 0 and the
columns with no 1 in a row where p is exactly 0.  The restriction is exact.
M is 0/1 and q >= 0, so a row with p = 0 forces q_j = 0 on every column j
with a 1 in it; every coupling lives on the kept columns, where the dropped
rows read 0 = 0.  Before its first pivot the simplex rules the system out
when the row-cap floor exceeds eps_lp: a column carries at most the least
p of the rows it passes through, so a row whose columns' caps sum to less
than its own p stays short by the difference at every point.  The floor,
the sum of those shortfalls, is y p for an integer Farkas vector y with
y M_j <= 0 on every kept column j.  Otherwise the simplex stops early once
its basis proves that no point of mass at most 1 + eps_lp, with the
artificials that left the basis at 0, reaches a phase-I objective of
eps_lp: a coupling has mass 1 and no artificial, so none is missed (see
``_phase1_simplex``).  An artificial is dropped once it leaves, so a run
to the end finds the least objective with those held at 0: an upper bound
on the phase-I minimum, path-dependent when positive.
``eps_lp`` bounds two things: that objective (the sum of the artificials)
over the kept rows, and the max-abs residual max |M q - p| of
the solution, scattered back to all columns, over all rows of M.  The
second catches a p that breaks a linear dependency among M's rows (marginal
selectivity or equal total mass), which the basis rows alone cannot see.
A design whose solve exceeds ``TABLEAU_BYTE_CAP`` raises CapacityError
before M is built: decompose the design.  ``_phase1_simplex`` gives the
tableau's shape and what each pivot costs.
For the two-binary-inputs / two-binary-outputs design the same feasible set
is described in closed form by the Bell/CHSH/Fine inequalities, implemented
here as an independent cross-check of the solver.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CapacityError, SolverError, UsageError
from .marginal import check_marginal_selectivity
from .model import DESIGN_CACHE_SIZE, Design, JointPmf, Level, System, Treatment, _table
from .model import TreatmentIndex, validate_system
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport
from .tolerances import EPS_LP, EPS_PROB, EPS_TEST, PIVOT_TOL, TABLEAU_BYTE_CAP


@dataclass(frozen=True)
class FeasibilitySystem:
    """The matrix form of the coupling-existence problem for one system.

    Row order: treatments in declared order, outcome tuples lexicographic by
    declared value order within each treatment block.  Column order: coupling
    assignments lexicographic with the first coordinate (input 1, level 1)
    slowest-varying.  ``coords`` lists the coupling coordinates as
    (input index, level), in column-label order.  ``basis`` holds the
    indices, ascending, of the rows that form a basis of M's row space (see
    ``_row_basis``).  ``matrix`` and ``basis`` are read-only and shared by
    every system on the same design.  Labels are built only when read.
    """

    system: System
    coords: tuple[tuple[int, Level], ...]
    matrix: np.ndarray  # int8, shape (rows, cols), read-only
    p: np.ndarray  # float64, aligned with row_labels
    basis: np.ndarray  # intp, read-only

    @property
    def coord_values(self) -> tuple[tuple, ...]:
        """The values each coupling coordinate ranges over, in ``coords`` order."""
        return tuple(self.system.design.outputs[k].values for k, _ in self.coords)

    @functools.cached_property
    def row_labels(self) -> tuple[tuple[Treatment, tuple], ...]:
        """(treatment, outcome tuple) per row of M."""
        design = self.system.design
        return tuple((t, o) for t in design.treatments for o in design.outcome_tuples())

    @functools.cached_property
    def col_labels(self) -> tuple[tuple, ...]:
        """The coupling assignment per column of M."""
        return tuple(itertools.product(*self.coord_values))

    def coordinate_index(self, k: int, level: Level) -> int:
        try:
            return self.coords.index((k, level))
        except ValueError:
            raise UsageError(f"no coupling coordinate for input {k}, level {level!r}") from None

    def format_grid(self) -> str:
        """Plain-text 0/1 grid of M with row and column labels.

        Layout: one header line per
        coupling coordinate giving its assigned value in each column, then
        one row per (treatment, outcome) with 1 for ones and '.' for zeros.
        """
        design = self.system.design
        cell = max([len(str(v)) for out in design.outputs for v in out.values] + [1])
        header_rows = []
        for c, (k, level) in enumerate(self.coords):
            name = f"H({design.inputs[k].name}={level})"
            cells = " ".join(str(a[c]).rjust(cell) for a in self.col_labels)
            header_rows.append((name, cells))
        body_rows = []
        for (t, outcome), row in zip(self.row_labels, self.matrix):
            tpart = ", ".join(f"{spec.name}={lev}" for spec, lev in zip(design.inputs, t))
            opart = ", ".join(f"{out.name}={v}" for out, v in zip(design.outputs, outcome))
            cells = " ".join(("1" if e else ".").rjust(cell) for e in row)
            body_rows.append((f"{tpart} | {opart}", cells))
        width = max(len(label) for label, _ in header_rows + body_rows)
        lines = [f"{label.rjust(width)}  {cells}" for label, cells in header_rows]
        lines.append("-" * len(lines[0]))
        block = len(body_rows) // len(design.treatments)  # rows per treatment
        for r, (label, cells) in enumerate(body_rows):
            if r and r % block == 0:
                lines.append("")
            lines.append(f"{label.rjust(width)}  {cells}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CouplingWitness:
    """A validated coupling pmf over the columns of M (the coupling grid over
    ``coord_values``, in C order): q >= 0 (clipped), sums to 1, M q = p."""

    q: np.ndarray
    residual: float
    coord_values: tuple[tuple, ...] = field(repr=False)

    def to_json(self) -> dict:
        cells = _table(self.coord_values, self.q.reshape([len(v) for v in self.coord_values]))
        return {
            "residual": self.residual,
            "q": [{"assignment": list(key), "p": mass} for key, mass in cells.items()],
        }


@dataclass(frozen=True)
class LpVerdict:
    """The criterion verdict with the solver's work on the problem it
    pivoted: ``rows`` (the basis rows where p > 0) and ``columns`` (the
    coupling columns with no 1 in a row where p = 0), ``iterations``,
    ``degenerate`` pivots and pivots chosen by Bland's rule (``bland``)
    among them.  ``optimum`` is the phase-I objective over those rows at
    the last basis, and ``bound`` the value an early-stop rule compared
    with eps_lp, the row-cap floor or the Dantzig-step bound: a lower bound
    on that objective over every point of mass at most 1 + eps_lp with the
    artificials that left the basis at 0.  ``bound < optimum`` when the
    simplex stopped early; else they are equal, the least objective with
    those artificials at 0: 0 when a coupling exists, and when positive an
    upper bound on the phase-I minimum that depends on the pivot path."""

    feasible: bool
    witness: CouplingWitness | None
    iterations: int
    rows: int
    columns: int
    degenerate: int
    bland: int
    optimum: float
    bound: float


def rank_bound(design: Design) -> int:
    """Upper bound on rank(M), prod(m_k (v_k - 1) + 1) over the inputs'
    level counts m_k and the outputs' value counts v_k; equal to it, and to
    ``len(basis)``, on a fully crossed design."""
    return math.prod(
        len(spec.levels) * (len(out.values) - 1) + 1
        for spec, out in zip(design.inputs, design.outputs)
    )


def build_feasibility_system(system: System, eps_prob: float = EPS_PROB) -> FeasibilitySystem:
    """Construct M and p for ``system``, which must pass ``validate_system``
    at ``eps_prob`` (UsageError otherwise); CapacityError, raised before the
    design's M is looked up or built, when the design exceeds
    TABLEAU_BYTE_CAP.  M and its basis come from a per-design cache."""
    violations = validate_system(system, eps_prob)
    if violations:
        raise UsageError("invalid system: " + "; ".join(violations[:3]))
    design = system.design

    coords = tuple((k, level) for k, spec in enumerate(design.inputs) for level in spec.levels)
    outcome_shape = tuple(len(out.values) for out in design.outputs)
    n_rows = len(design.treatments) * math.prod(outcome_shape)
    n_cols = math.prod(outcome_shape[k] for k, _ in coords)
    # The pivoted rows are basis rows, at most ``rank_bound`` of them.
    solve_bytes = n_rows * n_cols + 2 * (rank_bound(design) + 1) * (n_cols + 1) * 8
    if solve_bytes > TABLEAU_BYTE_CAP:
        raise CapacityError(
            f"criterion matrix and phase-I tableau need {solve_bytes} bytes, over "
            f"{TABLEAU_BYTE_CAP}; decompose the design (drop inputs or group output "
            "values) before testing"
        )

    matrix, basis = _criterion_matrix(design.index, outcome_shape)
    return FeasibilitySystem(system, coords, matrix, system.array.reshape(-1), basis)


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _criterion_matrix(
    index: TreatmentIndex, outcome_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """M (int8) and the indices of a basis of its row space, both read-only,
    built once per design index and outputs' value counts."""
    coords = [(k, i) for k, m in enumerate(index.counts) for i in range(m)]
    grid = tuple(outcome_shape[k] for k, _ in coords)
    block = math.prod(outcome_shape)
    # Columns are the coupling grid in C order; in column j, treatment t's
    # block has its 1 at the outcome-grid position of t's coordinates' values.
    value_index = dict(zip(coords, np.indices(grid, sparse=True)))
    cols = np.arange(math.prod(grid))
    matrix = np.zeros((len(index.positions) * block, cols.size), dtype=np.int8)
    for b, t in enumerate(index.positions.tolist()):
        selected = [value_index[(k, i)] for k, i in enumerate(t)]
        outcome = np.ravel_multi_index(selected, outcome_shape)
        matrix[b * block + np.broadcast_to(outcome, grid).ravel(), cols] = 1
    basis = _row_basis(index, outcome_shape)
    matrix.flags.writeable = basis.flags.writeable = False
    return matrix, basis


def _row_basis(index: TreatmentIndex, outcome_shape: tuple[int, ...]) -> np.ndarray:
    """Indices of a basis of M's row space, from the design alone.

    Row (t, o) is kept exactly when t is the first allowable treatment, in
    declared order, carrying t's levels on S(o), the inputs k where o_k is
    not output k's last value.  Those rows correspond unitriangularly to the
    joint-distribution-criterion marginals (outputs in S(o) take o's values
    at t's levels), which span M's rows and are independent.
    """
    outcomes = list(itertools.product(*(range(v) for v in outcome_shape)))
    keep = np.zeros((len(index.positions), len(outcomes)), dtype=bool)
    for j, o in enumerate(outcomes):
        subset = tuple(k for k, v in enumerate(outcome_shape) if o[k] < v - 1)
        keep[[group[0] for group in index.groups(subset).values()], j] = True
    return np.flatnonzero(keep)


def _phase1_simplex(
    a: np.ndarray, b: np.ndarray, eps_lp: float, max_iter: int
) -> tuple[float, float, np.ndarray, int, int, int]:
    """Minimize the sum of artificials for a x = b, x >= 0, where a is 0/1
    with a 1 in every column and b > 0, or stop as soon as no x of mass
    sum(x) <= 1 + eps_lp can bring it to eps_lp.

    Returns (optimum, bound, x, iterations, degenerate pivots, Bland
    pivots): ``optimum`` is the objective at the last basis, x that basis's
    solution, and ``bound`` the value the stop rule compared (below).  The
    entering column has the most negative reduced cost (Dantzig), except in
    a stall: once as many consecutive pivots as there are rows have been
    degenerate (minimum ratio at most PIVOT_TOL), the smallest eligible
    index enters (Bland) until the next nondegenerate pivot.  Bland's rule
    ends any stall and each nondegenerate pivot lowers the objective, so the
    method cannot cycle; the iteration cap only guards against oversized
    instances.  Of the rows tied at the minimum ratio, the smallest basic
    index leaves.

    The floor.  Before the tableau is built: a x <= b and x >= 0 give
    x_j <= ub_j, the least b_r over the rows r where a_rj = 1, so every
    point has objective at least floor = sum_r max(0, b_r - sum_j a_rj ub_j).
    When the floor exceeds eps_lp no pivot is made, and the return is the
    artificial basis (optimum = sum of b, x = 0) with bound = floor.  With
    R the rows of a positive term, r(j) a row where ub_j is attained and
    c_j the number of rows of R that column j has a 1 in, the integer
    y = 1_R - sum_j c_j e_r(j) has y a <= 0 and y b = floor: a Farkas
    certificate that a x = b has no x >= 0.  With no columns the floor is
    the sum of b, the optimum.

    The stop rule.  At a basis with objective w and reduced costs d_j, each
    x >= 0 that solves the rows (with the artificials that left at 0) has
    objective w + sum_j d_j x_j.  With d < 0 the most negative d_j, which
    Dantzig pricing has just found, every such x of mass at most 1 + eps_lp
    has objective at least ``w + d (1 + eps_lp)``.  Once that bound exceeds
    eps_lp the loop stops, with optimum = w > bound > eps_lp.  The rule is
    exact for the criterion: a column of a is a coupling assignment, and a
    witness is a coupling whose mass is within eps_lp of 1, so a solve that
    reaches a witness passes through no basis whose bound exceeds eps_lp,
    and keeps every pivot and its x.  A run that ends with no structural
    column to price returns bound = optimum, the least objective with the
    artificials that left at 0; above 0 it is only an upper bound on the
    phase-I minimum, and which one depends on the pivot path.

    The tableau is (m + 1) x (n + 1): the structural columns and the
    right-hand side, with the reduced-cost row last.  Artificial i is basic
    in row i at the start and is marked in ``basis`` by index n + i; once it
    leaves it is never priced again, so its column is never read or kept.
    Row operations act column by column, so dropping it changes no other
    entry.  Each pivot makes the same thirteen numpy calls whatever m is
    (fourteen under Bland's rule): pricing (one), the ratio test and the
    choice of the leaving row (eight, on the rows where the entering column
    is positive only, found by ``nonzero``, the ties settled by one
    ``lexsort`` on (ratio, basic index)), the pivot row (one) and one
    rank-1 update of every row, the cost row included (three).  The stop
    rule reads two scalars and makes no call.
    """
    m, n = a.shape
    # Column j carries at most ub_j, the least b_r on its rows, so row r
    # stays short by at least b_r - sum_j a_rj ub_j whatever the pivots.
    ub = np.where(a, b[:, None], np.inf).min(axis=0)
    floor = float(np.maximum(b - a @ ub, 0.0).sum())
    if floor > eps_lp:
        return float(b.sum()), floor, np.zeros(n), 0, 0, 0
    tableau = np.empty((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, n] = b
    # Reduced costs for min(sum of artificials) with the artificial basis.
    tableau[m, :n] = -tableau[:m, :n].sum(axis=0)
    tableau[m, n] = -tableau[:m, n].sum()
    cost, rhs = tableau[m, :n], tableau[:m, n]
    basis = np.arange(n, n + m)
    bound = None

    iterations = degenerate = bland = stall = 0
    # Artificials never re-enter, so only the n structural costs are priced;
    # with no structural column no pivot is made.
    while n:
        if stall < m:
            entering = int(cost.argmin())
            reduced = float(cost[entering])
            if reduced >= -PIVOT_TOL:
                break
            # Every x of mass <= 1 + eps_lp has at least this objective.
            stop = reduced * (1.0 + eps_lp) - float(tableau[m, n])
            if stop > eps_lp:
                bound = stop
                break
        else:
            eligible = cost < -PIVOT_TOL
            entering = int(eligible.argmax())
            if not eligible[entering]:
                break
            bland += 1
        iterations += 1
        if iterations > max_iter:
            raise SolverError(f"phase-I simplex exceeded {max_iter} iterations")

        col = tableau[:, entering]
        # Candidates are the rows where col > PIVOT_TOL; the cost row's entry
        # is below -PIVOT_TOL, so it is never one.  A right-hand side below
        # 0 is rounding: it counts as 0, so no step is negative.  Only exact
        # ties compete, so no other basic variable is pushed below 0 by a
        # step longer than its own ratio.
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            raise SolverError("phase-I objective unbounded; matrix is malformed")
        ratios = np.maximum(rhs[rows], 0.0) / col[rows]
        # Sorted by ratio, then by basic index: ties go to the smallest.
        first = np.lexsort((basis[rows], ratios))[0]
        leaving = int(rows[first])
        if ratios[first] <= PIVOT_TOL:
            degenerate += 1
            stall += 1
        else:
            stall = 0

        pivot_row = tableau[leaving] / tableau[leaving, entering]
        tableau -= np.multiply.outer(col, pivot_row)
        tableau[leaving] = pivot_row
        basis[leaving] = entering

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = rhs[structural]
    optimum = float(-tableau[m, n])
    return optimum, optimum if bound is None else bound, x, iterations, degenerate, bland


def _residual(fs: FeasibilitySystem, q: np.ndarray) -> float:
    """max |M q - p| over all rows of M, read from q's support s as
    M[:, s] @ q[s]."""
    support = np.flatnonzero(q)
    return float(np.abs(fs.matrix[:, support] @ q[support] - fs.p).max())


def _coupling(fs: FeasibilitySystem, q: np.ndarray, eps_lp: float) -> np.ndarray:
    """A float64 copy of ``q`` after the entrywise checks of the witness
    contract, with entries in (-eps_lp, 0) clipped to zero.  UsageError
    unless q has one finite entry per column of M, none below -eps_lp."""
    q = np.array(q, dtype=np.float64)
    if q.shape != fs.matrix.shape[1:]:
        raise UsageError(f"witness length {q.shape} does not match {fs.matrix.shape[1]} columns")
    if not np.isfinite(q).all():
        raise UsageError(f"witness has non-finite entry {q[~np.isfinite(q)][0]}")
    if q.min() < -eps_lp:
        raise UsageError(f"witness has negative entry {q.min():.3g}")
    q[q < 0] = 0.0
    return q


def _witness(fs: FeasibilitySystem, q: np.ndarray, residual: float, eps_lp: float) -> CouplingWitness:
    """The witness for a q from ``_coupling`` with its ``_residual``;
    UsageError when q's total mass or its residual is off by more than eps_lp."""
    if abs(q.sum() - 1.0) > eps_lp:
        raise UsageError(f"witness mass {q.sum():.10g} != 1")
    if residual > eps_lp:
        raise UsageError(f"witness residual {residual:.3g} exceeds {eps_lp}")
    return CouplingWitness(q, residual, fs.coord_values)


def make_witness(
    fs: FeasibilitySystem, q: np.ndarray, eps_lp: float = EPS_LP
) -> CouplingWitness:
    """Validate a candidate coupling vector against the witness contract.

    Entries in (-eps_lp, 0) are clipped to zero; a non-finite entry, one
    below -eps_lp, a total mass away from 1, or a max-abs residual over all
    rows of M above eps_lp raises UsageError.
    """
    q = _coupling(fs, q, eps_lp)
    return _witness(fs, q, _residual(fs, q), eps_lp)


def solve_feasibility(
    fs: FeasibilitySystem,
    eps_lp: float = EPS_LP,
    max_iter: int | None = None,
) -> LpVerdict:
    """Decide M q = p, q >= 0 by phase-I simplex; return a witness if feasible.

    The simplex pivots the problem on the support of p (an exact
    restriction, as the module docstring shows): the basis rows
    ``fs.basis`` with p > 0 and the columns with no 1 in a row where p is
    exactly 0 (a positive cell, however small, keeps its columns).  Near the
    tolerance it can only rule out more: it admits no mass, not even within
    eps_lp, on a cell observed to be impossible.  Its solution is scattered
    back into a q over all columns, zero elsewhere.

    Ruled out when the phase-I objective on the pivoted rows exceeds
    ``eps_lp`` (they are a relaxation of the full system), or when q's
    max |M q - p| over all rows does (p breaks a linear dependency among
    M's rows, so no coupling exists).  Otherwise consistent, with the
    witness validated against the full M and p.  The early stops of
    ``_phase1_simplex`` change no verdict; ``LpVerdict`` says what its
    ``optimum`` and ``bound`` are.  The residual is computed once, on q as
    the witness holds it; a q that fails the witness contract raises
    UsageError, as ``make_witness`` does, and is never a verdict.  More
    than ``max_iter`` pivots (default 50 (basis rows + all columns) + 1000)
    raise SolverError.
    """
    n = fs.matrix.shape[1]
    if max_iter is None:
        max_iter = 50 * (len(fs.basis) + n) + 1000
    rows = fs.basis[fs.p[fs.basis] > 0]
    cols = np.flatnonzero(~fs.matrix[fs.p == 0].any(axis=0))
    optimum, bound, x, iterations, degenerate, bland = _phase1_simplex(
        fs.matrix[rows][:, cols], fs.p[rows], eps_lp, max_iter
    )
    feasible, witness = False, None
    if optimum <= eps_lp:
        q = np.zeros(n)
        q[cols] = x
        q = _coupling(fs, q, eps_lp)
        residual = _residual(fs, q)
        feasible = residual <= eps_lp
        if feasible:
            witness = _witness(fs, q, residual, eps_lp)
    return LpVerdict(
        feasible, witness, iterations, rows.size, cols.size, degenerate, bland, optimum, bound
    )


def extract_coupling_marginals(
    witness: CouplingWitness,
    fs: FeasibilitySystem,
    which: list[tuple[int, Level]],
) -> JointPmf:
    """Marginal pmf of the selected coupling coordinates, from the witness.

    For coordinates matching an allowable treatment this reproduces the
    observed treatment pmf (within twice the solver tolerance); cross-level
    selections expose joint behavior that is never directly observable.
    A coordinate named twice is a UsageError.
    """
    positions = [fs.coordinate_index(k, level) for k, level in which]
    if len(set(positions)) != len(positions):
        raise UsageError(f"duplicate coordinates in {which!r}")
    values = fs.coord_values
    cube = np.moveaxis(witness.q.reshape([len(v) for v in values]), positions, range(len(which)))
    marginal = cube.sum(axis=tuple(range(len(positions), cube.ndim)))
    return _table([values[c] for c in positions], marginal)


@dataclass(frozen=True)
class FineViolation:
    """The most-violated Fine inequality: indices, value, violated bound."""

    i: Level
    i_prime: Level
    j: Level
    j_prime: Level
    value: float
    bound: str  # "lower" (>= 0) or "upper" (<= 1)
    excess: float

    def to_json(self) -> dict:
        return asdict(self)


def fine_inequality_check(system: System, eps_test: float = EPS_TEST) -> TestReport:
    """Closed-form feasibility check for the 2x2 binary fully crossed design.

    Evaluates 0 <= p(i.) + p(.j) + p(i'j') - p(ij) - p(ij') - p(i'j) <= 1
    over all i != i', j != j', where p(ij) is the probability that both
    outputs take their first declared value at treatment (i, j) and p(i.),
    p(.j) are the corresponding output marginals.  Inapplicable unless the
    design is 2x2 binary, fully crossed, and marginally selective.
    """
    design = system.design
    name = "fine"
    if design.n != 2 or any(len(s.levels) != 2 for s in design.inputs):
        return TestReport(name, INAPPLICABLE, "requires two binary inputs")
    if any(len(o.values) != 2 for o in design.outputs):
        return TestReport(name, INAPPLICABLE, "requires two binary outputs")
    if not design.is_fully_crossed():
        return TestReport(name, INAPPLICABLE, "requires all four treatments allowable")
    report = check_marginal_selectivity(system, eps_test=eps_test)
    if not report.passed:
        return TestReport(
            name,
            INAPPLICABLE,
            f"marginal selectivity fails (discrepancy {report.discrepancy:.3g})",
        )

    levels1, levels2 = design.inputs[0].levels, design.inputs[1].levels
    p = dict(zip(design.treatments, system.array.tolist()))  # p[t][a][b]

    worst: FineViolation | None = None
    for i, i_prime in itertools.permutations(levels1, 2):
        for j, j_prime in itertools.permutations(levels2, 2):
            value = (
                sum(p[(i, levels2[0])][0])
                + sum(row[0] for row in p[(levels1[0], j)])
                + p[(i_prime, j_prime)][0][0]
                - p[(i, j)][0][0]
                - p[(i, j_prime)][0][0]
                - p[(i_prime, j)][0][0]
            )
            excess = max(-value, value - 1.0)
            if excess > eps_test and (worst is None or excess > worst.excess):
                bound = "lower" if -value > value - 1.0 else "upper"
                worst = FineViolation(i, i_prime, j, j_prime, value, bound, excess)
    if worst is not None:
        return TestReport(
            name,
            RULED_OUT,
            f"inequality violated by {worst.excess:.4g} at "
            f"(i={worst.i}, i'={worst.i_prime}, j={worst.j}, j'={worst.j_prime})",
            witness=worst,
        )
    return TestReport(name, CONSISTENT, "all eight double inequalities hold")


def lp_report(system: System, eps_lp: float = EPS_LP, eps_prob: float = EPS_PROB) -> TestReport:
    """Run the full feasibility test and wrap the verdict as a TestReport;
    ``eps_prob`` is the tolerance the system is validated at."""
    verdict = solve_feasibility(build_feasibility_system(system, eps_prob), eps_lp=eps_lp)
    if verdict.feasible:
        return TestReport(
            "lp",
            CONSISTENT,
            f"feasible in {verdict.iterations} iterations "
            f"(residual {verdict.witness.residual:.2g})",
            witness=verdict.witness,
            details={"iterations": verdict.iterations},
        )
    return TestReport(
        "lp",
        RULED_OUT,
        f"no nonnegative coupling pmf exists ({verdict.iterations} iterations)",
        details={"iterations": verdict.iterations},
    )
