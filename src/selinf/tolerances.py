"""Every tolerance and byte cap of the package, with what it bounds and its unit.

The selective-influence tests are exact statements; these are the slacks
they are checked at.  Modules import the names (``feasibility.EPS_LP`` still
resolves), and the CLI's ``--eps-*`` defaults are the ``EPS_*`` values.
"""

#: Probability-mass bookkeeping (``--eps-prob``), in probability: a mass in
#: (-EPS_PROB, 0) is clipped to 0, a mass below -EPS_PROB is invalid, and a
#: treatment's masses must sum to 1 within EPS_PROB.
EPS_PROB = 1e-9

#: Slack of the necessary tests that compare probabilities (``--eps-test``),
#: in the unit of the compared statistic: the sup-norm marginal discrepancy
#: and the Fine inequalities' values (probability), a chain inequality's
#: lhs - rhs (the metric's distance), and the interaction contrast c(t)
#: (probability) and its running integral (probability x grid time).
EPS_TEST = 1e-9

#: Slack of the cosphericity inequality (``--eps-cospherical``),
#: dimensionless (products of correlations): a sub-design passes when
#: lhs <= rhs + EPS_COSPHERICAL, and is flagged as a boundary pass when
#: |lhs - rhs| <= EPS_COSPHERICAL.
EPS_COSPHERICAL = 1e-6

#: The criterion LP's feasibility tolerance (``--eps-lp``), in probability:
#: the phase-I objective (sum of the artificials), a witness's max |M q - p|
#: over all rows of M and |sum(q) - 1|, and the depth below 0 to which a
#: witness entry is clipped rather than rejected.
EPS_LP = 1e-8

#: The simplex's zero, in tableau units (probability on the right-hand
#: side, dimensionless elsewhere): a reduced cost below -PIVOT_TOL may enter,
#: an entering-column entry above PIVOT_TOL may leave, and a minimum ratio at
#: most PIVOT_TOL makes a degenerate pivot.  No flag sets it.
PIVOT_TOL = 1e-10

#: Zero variance for correlations, relative: a marginal whose variance is at
#: most (VAR_RTOL * max(spread, 1))**2, spread the largest |payload - mean|
#: on its support in payload units, has no defined correlation.
VAR_RTOL = 1e-9

#: Rounding admitted in a response-time cdf, in probability: a value may lie
#: CDF_TOL outside [0, 1] and fall by CDF_TOL from one grid point to the next.
CDF_TOL = 1e-12

#: Largest dense pmf array ``System.array`` allocates, in bytes (float64
#: masses of shape (treatments, *outcome shape)).
ARRAY_BYTE_CAP = 2**30

#: Largest dense aggregation factor of ``model.sub_marginals``, in bytes:
#: float64 0/1 entries, (cells of a group of consecutive outputs) x (cells of
#: its sub-marginals up to the subset size cap).  The outputs are split into
#: groups within it, one matmul each, so the whole product is never formed;
#: with several groups, it also bounds the largest temporary of one step.
MARGIN_BYTE_CAP = 2**19

#: Largest criterion solve admitted, in bytes: M as int8, rows x columns,
#: plus two float64 arrays of (r + 1) x (columns + 1), the phase-I tableau
#: and the temporary of its rank-1 update, r = prod(m_k (v_k - 1) + 1) the
#: bound on the pivoted rows (``feasibility.rank_bound``).
TABLEAU_BYTE_CAP = 2**30
