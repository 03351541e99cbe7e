"""Dilation-equivariant regular-singular connection modules on C*.

An object is a free module over the Laurent-polynomial functions of z,
carrying a connection ``nabla = delta + A(z)`` (``delta = tau z d/dz``, A
with no pole at the origin) and a commuting dilation action
``sigma(m)(z) = B(z) m(qz)`` with ``q = exp(2 pi i theta)``.  This module
implements the computable category structure on such objects:

* normalization to a constant commuting pair ``(A0, B0)`` with the spectrum
  of A0 inside a chosen transversal strip, one pipeline for every input:
  the object balanced by ``z -> rho z``, a recursive series gauge that kills
  every coupling but those the fold lands on power 0, resonant ones among
  them, and that one fold into the strip;
* the equivalence with pairs of commuting invertible matrices -- the
  monodromy ``exp(2 pi i A0/tau)`` together with B0 -- in both directions;
* the rigid tensor structure (tensor, dual, evaluation/coevaluation, unit),
  morphism spaces, kernels and cokernels, composition series, classes in the
  Grothendieck group, and the dimension of flat sections.

All operations are pure; randomized searches take explicit seeds.
"""

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import (
    EquivarianceViolation,
    NonConstantB,
    NumericFailure,
    RegularityViolation,
    SingularB,
    SpectrumCollision,
    TransversalMismatch,
    ValidationFailure,
)
from .laurent import (
    GaugeRecord,
    PolyMat,
    ShearStep,
    _balancing_radius,
    _commutator,
    _equivariance_norm,
    _gauged_pair,
    _rescaled,
    _residual_norms,
    _series,
)
from .numkit import (
    _SNAP_TOL,
    DEFAULT_TOL,
    Transversal,
    _block_arrays,
    _bounded_groups,
    _cluster_triangular,
    _clustered_schur,
    _components,
    _decouple,
    _fold,
    _FormalSum,
    _frobenius,
    _group_blocks,
    _is_singular,
    _lex_order,
    _log_schur,
    _near_pairs,
    _orthonormal_columns,
    _schur,
    _shift_groups,
    _straddling,
    _svd_split,
    _triangular_sylvester,
    _warn_straddle,
    as_square_matrix,
    mat_exp,
    same_context,
    spectral,  # noqa: F401  no longer called here; kept as category.spectral for callers
)

TWO_PI_I = 2j * math.pi
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# normalize's series gauge holds a few arrays of order x n x n entries (the
# gaps, the shifted triangles, the coefficients); an order at which one of
# them would top this many entries is refused before any is allocated
MAX_GAUGE_ENTRIES = 1 << 20
# eps_res bounds one product's rounding; a map made by a chain of products,
# solves and bases carries several, so ``Morphism.is_valid`` allows this many
_MORPHISM_SLACK = 100
# ``h0_dim``'s radius on -tau Z and on zero singular values, in eps_spec: wider
# than a cluster, so that the spread of a defective cluster still counts
_FLAT_SLACK = 10


def theta_to_q(theta):
    return cmath.exp(TWO_PI_I * theta)


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------

class EquivariantConnection:
    """A presentation ``(A(z), B(z))`` of one object, dimension ``n``.

    ``A`` is the connection matrix (no negative powers), ``B`` the dilation
    matrix with invertible constant term; both share the parameters
    ``(tau, q = exp(2 pi i theta))``.
    """

    __slots__ = ("A", "B", "theta", "tau", "transversal")

    def __init__(self, A, B, theta, tau, transversal=None):
        if A.dim != B.dim:
            raise ValidationFailure("connection and dilation dimensions differ")
        q = theta_to_q(theta)
        for name, p in (("A", A), ("B", B)):
            if not same_context((p.tau, tau), (p.q, q)):
                raise ValidationFailure(
                    "%s carries parameters inconsistent with (tau, theta)" % name)
        self.A = A
        self.B = B
        self.theta = float(theta)
        self.tau = complex(tau)
        self.transversal = transversal

    @property
    def n(self):
        return self.A.dim

    @property
    def q(self):
        return theta_to_q(self.theta)

    @classmethod
    def from_constant(cls, a0, b0, theta, tau, transversal=None):
        a0 = np.atleast_2d(np.asarray(a0, dtype=complex))
        b0 = np.atleast_2d(np.asarray(b0, dtype=complex))
        q = theta_to_q(theta)
        return cls(PolyMat.constant(a0, tau, q), PolyMat.constant(b0, tau, q),
                   theta, tau, transversal)

    def __repr__(self):
        return "EquivariantConnection(n=%d, tau=%s, theta=%s)" % (
            self.n, self.tau, self.theta)


def equivariance_residual(a, b):
    """Laurent residual of ``delta(B) + [A, B]``, certified on the orders the
    presentation determines.

    This is the compatibility bookkeeping in which the dilation matrix of a
    normalized object is an isomorphism invariant at fixed strip; it agrees
    with the honest ``sigma . nabla = nabla . sigma`` expansion for constant
    connection matrices.

    Computed in the frame it is given, with the commutator of
    ``laurent._commutator``: where that evaluates on the circle, each
    coefficient is accurate to a small multiple of the unit roundoff times
    the largest coefficient product of ``a`` and ``b``, normwise, not per
    coefficient.  ``validate`` hands it the balanced pair, where no power
    outgrows ``max(1, ||A_0||)``.
    """
    drift, commutator = _residual_terms(a, b)
    return drift + commutator


def _residual_terms(a, b):
    """``(delta(B), [A, B])`` of ``equivariance_residual``, the commutator
    on the orders the presentation determines (``_residual_orders``)."""
    return b.delta(), _commutator(a, b, *_residual_orders(a, b))


def _residual_orders(a, b):
    """The orders ``lo..hi`` the presentation determines; the largest
    coefficient norm of ``equivariance_residual`` on them is
    ``laurent._equivariance_norm``, which forms no value."""
    return min(b.min_power, 0), max(a.max_power, b.max_power, 0)


def validate(obj, tol=None, strict=True):
    """Check the object invariants; returns residuals, raises when strict.

    Raised failures name the violated invariant: ``RegularityViolation`` for
    poles in A, ``SingularB`` for a non-invertible constant term of B, and
    ``EquivarianceViolation`` when connection and dilation fail to commute.

    Poles and commutation are checked on the pair balanced by ``z -> rho
    z``, ``rho = _balancing_radius(A)`` (``radius``): ``pole_residual``, the
    largest norm among the negative powers of ``A(rho z)``, is bounded by
    eps_res times one plus the norm of ``A(rho z)``, so that a pole cannot
    hide beside the growing high powers of the input as given
    (``pole_residual_unit`` is that norm at unit radius); and
    ``equivariance_residual``, the residual's largest coefficient norm
    there, is bounded by eps_res times ``max(1, ||A(rho z)||) max(1, ||B(rho
    z)||)``.
    ``equivariance_residual_unit`` is the same norm of
    ``equivariance_residual(A, B)`` on the pair as given, which is taken
    only here (``normalize`` does not read it) and only when ``rho < 1``;
    at ``rho = 1`` it is the balanced value.  Each is accurate normwise in
    its own frame (see ``equivariance_residual``), so on input whose powers
    grow the unit value carries rounding of about the unit roundoff times
    ``||A|| ||B||``.
    """
    diag, _, _ = _validated(obj, tol or DEFAULT_TOL, strict)
    unit = diag["equivariance_residual"]
    if diag["radius"] != 1.0:
        unit = _equivariance_norm(obj.A, obj.B, *_residual_orders(obj.A, obj.B))
    diag["equivariance_residual_unit"] = unit
    diag["pole_residual_unit"] = obj.A.norm(hi=-1)
    return diag


def _validated(obj, tol, strict):
    """``(residuals, A(rho z), B(rho z))``: the residuals ``validate``
    checks, without the unit-radius one, and the balanced pair, which
    ``normalize`` goes on with."""
    diag = {}
    radius = _balancing_radius(obj.A)
    a, b = _rescaled(obj.A, radius), _rescaled(obj.B, radius)
    pole = a.norm(hi=-1)
    diag["pole_residual"] = pole
    if strict and pole > tol.eps_res * (a.norm() + 1.0):
        raise RegularityViolation(
            "connection matrix has a pole: negative-power coefficient of "
            "norm %.3e at radius %g" % (pole, radius))

    b0 = obj.B.term(0)
    svals = np.linalg.svd(b0, compute_uv=False) if obj.n else np.array([1.0])
    diag["b_smallest_singular_value"] = smin = float(svals[-1])
    if strict and _is_singular(svals, tol):
        raise SingularB("constant term of the dilation matrix is singular "
                        "(smallest singular value %.3e)" % smin)

    res = _equivariance_norm(a, b, *_residual_orders(a, b))
    diag["equivariance_residual"] = res
    diag["radius"] = radius
    if strict and res > tol.eps_res * max(1.0, a.norm()) * max(1.0, b.norm()):
        raise EquivarianceViolation(
            "connection and dilation do not commute: residual %.3e at radius %g"
            % (res, radius))
    return diag, a, b


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Constant commuting presentation of an object: ``nabla = delta + A0``,
    dilation ``B0``, with ``spec(A0)`` inside ``transversal``.

    What is derived from A0 and B0 is kept in ``_memo`` once computed, and
    the arrays it was read from are made read-only then, so that an
    in-place change cannot leave it stale:

    * per ``Tolerances``, the clustered Schur form of A0 (``schur_form``),
      read-only with A0; read-only with A0 and B0, what ``tensor`` reads
      of the object as a factor (``_strip_form``), its ``_HomSide`` and
      its K0 class; and for a result of ``tensor``, its factors and the
      strip shift of each pair of their groups, which those are read off;
    * for a result of ``from_monodromy``, which is born with A0 and B0
      read-only: ``exp(2 pi i A0/tau)``, which ``monodromy`` copies, and
      the singular values of B0, which ``validate_normal_form`` reads."""

    A0: np.ndarray
    B0: np.ndarray
    transversal: Transversal
    theta: float
    tau: complex
    gauge: GaugeRecord = None
    diagnostics: dict = field(default_factory=dict)
    # derived data (see above), keyed by a Tolerances, by (Tolerances, name) for the
    # names "strip", "side", "hom", "k0" and "factors", by "monodromy" and "b_singular_values"
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.A0.shape[0]

    def schur_form(self, tol=None):
        """Clustered Schur form ``(t, q, blocks)`` of A0: ``q t q^H = A0``,
        each eigenvalue cluster a contiguous diagonal block ``(start, stop,
        mean)``.

        The result of ``tensor``, ``dual`` and ``from_monodromy`` holds it
        from birth, without a Schur iteration of A0 (``_from_schur_form``,
        whose A0 is ``q t q^H``; ``tensor`` builds A0 and the form side by
        side from its factors, so there they agree to rounding); any other
        normal form computes it with ``numkit._clustered_schur`` on
        first use.  It is kept once per ``Tolerances``, and every read of
        the spectrum of A0 is its diagonal.  Its arrays are read-only, and
        so is A0 from then on.

        ``tensor`` reads this form grouped and ordered along the strip
        (``_strip_form``).
        """
        tol = tol or DEFAULT_TOL
        form = self._memo.get(tol)
        if form is None:
            form = self._keep(_clustered_schur(self.A0, tol), tol)
        return form

    def _strip_form(self, tol):
        """The ``_StripForm`` that ``tensor`` reads of this object as a
        factor, kept beside ``schur_form`` and shared by ``tensor(x, y)``
        and ``tensor(y, x)``, with B0 made read-only: a product reads its
        labels, class and Hom side off its factors later."""
        form = self._memo.get((tol, "strip"))
        if form is None:
            form = self._memo[(tol, "strip")] = _new_strip_form(self, tol)
            self.B0.flags.writeable = False
        return form

    @classmethod
    def _from_schur_form(cls, form, tol, *args, **kwargs):
        """The normal form with ``A0 = q t q^H`` for the clustered Schur form
        ``form = (t, q, blocks)``, which it keeps as its form at ``tol``; the
        other arguments are the constructor's after A0."""
        t, q, _ = form
        nf = cls(q @ t @ q.conj().T, *args, **kwargs)
        nf._keep(form, tol)
        return nf

    def _keep(self, form, tol):
        t, q, blocks = form
        t.flags.writeable = q.flags.writeable = self.A0.flags.writeable = False
        form = self._memo[tol] = (t, q, tuple(blocks))
        return form

    @property
    def q(self):
        return theta_to_q(self.theta)

    def eigen_margins(self):
        """Distance of each eigenvalue of A0 (``schur_form()``) to the strip boundary."""
        return [self.transversal.boundary_distance(lam)
                for lam in np.diag(self.schur_form()[0])]


def validate_normal_form(nf, tol=None):
    """Check a normal form, returning its residuals: square A0 and B0 of one
    size, the eigenvalues of A0 (``nf.schur_form(tol)``, else the means of
    their ``_bounded_groups``) in the strip, each array tested by one
    ``Transversal.contains`` as each value alone, A0 and B0 commuting
    (``EquivarianceViolation``), B0 invertible (``SingularB``) by its
    singular values, those ``from_monodromy`` held if it made the form.  A
    strip of another modulus than the form's tau is refused with
    ``TransversalMismatch``."""
    tol = tol or DEFAULT_TOL
    if not same_context((nf.transversal.tau, nf.tau)):
        raise TransversalMismatch("transversal modulus differs from the normal form's tau")
    n = nf.A0.shape[0]
    if nf.A0.shape != (n, n) or nf.B0.shape != (n, n):
        raise ValidationFailure("normal form needs square A0 and B0 of one size, got "
                                "%s and %s" % (nf.A0.shape, nf.B0.shape))
    diag = {}
    if n:
        t, q, blocks = nf.schur_form(tol)
        if not nf.transversal.contains(t.diagonal(), tol.eps_spec).all():
            # rounding may spread a Jordan block over an edge: its group's mean decides
            _, sizes, means = _block_arrays(_bounded_groups(t, q, blocks, tol)[3])
            outside = sizes[~nf.transversal.contains(means, tol.eps_spec)].sum()
            if outside:
                raise ValidationFailure("normal form has %d eigenvalue(s) outside the strip"
                                        % outside)
        diag["commutator_residual"] = _commutator_residual(
            nf.A0, nf.B0, tol, EquivarianceViolation, "constant pair does not commute")
        svals = nf._memo.get("b_singular_values")
        if svals is None:
            svals = np.linalg.svd(nf.B0, compute_uv=False)
        diag["b_smallest_singular_value"] = float(svals[-1])
        if _is_singular(svals, tol):
            raise SingularB("dilation matrix of the normal form is singular")
    return diag


def unit_object(theta, tau, transversal=None):
    """The tensor unit: one-dimensional, trivial dilation, flat connection."""
    transversal = transversal or Transversal(tau)
    rep, _ = transversal.reduce(0.0)
    return NormalForm(np.array([[rep]], dtype=complex),
                      np.eye(1, dtype=complex), transversal, float(theta),
                      complex(tau))


def direct_sum(x, y):
    _check_same_context(x, y)
    a0 = np.zeros((x.n + y.n, x.n + y.n), dtype=complex)
    b0 = np.zeros_like(a0)
    a0[:x.n, :x.n], a0[x.n:, x.n:] = x.A0, y.A0
    b0[:x.n, :x.n], b0[x.n:, x.n:] = x.B0, y.B0
    return NormalForm(a0, b0, x.transversal, x.theta, x.tau)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(obj, transversal=None, order=16, tol=None):
    """Gauge an object to a constant commuting pair with spectrum in the strip.

    The object is first validated and balanced by ``z -> rho z``, ``rho``
    the radius ``validate`` reports: power k of A and B is scaled by
    ``rho**k``, exactly, and ``rho = 1`` leaves the object as it is.  The
    substitution commutes with ``delta``, the q-dilation and Laurent
    products, so the normal form is isomorphic; the gauge is recorded in the
    balanced frame (``GaugeRecord.radius``).  ``gauge_residual`` and
    ``b_residual`` are the largest coefficient norms left there beside A0
    and B0, the norm weighted by ``rho**k``; their ``*_unit`` values
    reweight power k by ``rho**-k``, and one that has no float value there
    raises ``NumericFailure``.

    Then one pipeline, for every input (Poincare-Dulac-Levelt: one series
    gauge that kills every coupling but those one shear makes constant, then
    that shear):

    * the clustered Schur form ``q t q^H`` of the constant term A(0), its
      clusters grouped by the shift that reduces them into the strip and
      joined where their projectors are ill conditioned
      (``numkit._shift_groups``), and ``S = q v`` the similarity that block
      diagonalizes A(0) over the groups (``S = q`` when no cluster shifts);
    * the series gauge ``P = I + P_1 z + ...`` with A(0) kept, solved in the
      basis S: each order is one ztrsyl on the block diagonal form ``D + k
      tau`` against D (``numkit._triangular_sylvester``).  It kills every
      coupling of the powers 1 to ``order`` but block (i, j) at order ``k
      = s_j - s_i``, ``s`` the groups' shifts, which it keeps
      (``laurent._series``): the fold lands it on power 0, and every
      resonant coupling is among them.  ``resonance_separation`` is the
      smallest ``|d_i + k tau - d_j|`` over the eigenvalues ``d`` of A(0),
      ``1 <= k <= order`` and the blocks solved; an order whose right-hand
      side is nonzero raises ``SpectrumCollision`` when its smallest is
      within eps_spec, and ``NumericFailure`` when ztrsyl perturbs an
      eigenvalue there and its smallest lies below the rounding ``eps/2
      max(1, ||A(0)||)`` of A(0);
    * P and the fold are recorded, and A and B go through the record as
      ``apply_gauge_record`` replays it (``laurent._gauged_pair``), in one
      pass: P's transport, normwise accurate on the circle when P is
      balanced, hands each window cut at ``order`` (a constant P keeps
      every power) straight to the fold (``GaugeRecord.fold``): ``S``, then
      ``diag(z**-shift)`` on each group, A checked for regularity off the
      window's own norms, and one value built per operand.  A0 is then
      block upper triangular over the groups, the kept couplings above the
      diagonal blocks, and B must come out constant up to the truncation
      residual.

    A0 is power 0 of the gauged and folded A, which the circle leaves
    equal to A(0) only within rounding; ``strip_margin`` is read off the
    Schur form ``validate_normal_form`` takes.  ``shear_passes`` is 0: the
    diagnostic stays for readers of earlier reports.

    ``order`` below 1 is refused with ``ValidationFailure``: no power of
    the connection matrix would be gauged away.  So is an order whose gauge
    arrays would hold more than ``MAX_GAUGE_ENTRIES`` entries each, ``order
    * max(n, 1)**2``, before any is allocated.
    """
    tol = tol or DEFAULT_TOL
    if order < 1:
        raise ValidationFailure("truncation order must be at least 1, got %d" % order)
    if order * max(obj.n, 1) ** 2 > MAX_GAUGE_ENTRIES:
        raise ValidationFailure(
            "truncation order %d is too large at n = %d: the series gauge would "
            "hold more than %d entries per array" % (order, obj.n, MAX_GAUGE_ENTRIES))
    transversal = transversal or obj.transversal or Transversal(obj.tau)
    if not same_context((transversal.tau, obj.tau)):
        raise TransversalMismatch("transversal modulus differs from the object's tau")
    diag, a, b = _validated(obj, tol, strict=True)
    radius = diag["radius"]

    form = _shift_groups(*_clustered_schur(a.term(0), tol), transversal, tol)
    fold = _fold_step(form)
    series, separation = _series_gauge(a, form, fold, transversal.tau, order, tol)
    record = GaugeRecord(series=series, truncation=order, radius=radius, fold=fold)
    gauged, b_final = _gauged_pair(a, b, record, tol)
    gauge_residual, gauge_unit = _residual_norms(gauged, radius)
    b_residual, b_unit = _residual_norms(b_final, radius)
    if b_residual > tol.eps_res * max(1.0, b_final.norm()):
        raise NonConstantB(
            "dilation matrix retains non-constant terms of norm %.3e at "
            "truncation order %d" % (b_residual, order))
    for name, unit in (("gauge_residual_unit", gauge_unit), ("b_residual_unit", b_unit)):
        if not math.isfinite(unit):   # power k weighted by radius**-k past the float range
            raise NumericFailure("%s has no float value at radius %g" % (name, radius))

    nf = NormalForm(gauged.term(0), b_final.term(0), transversal, obj.theta, obj.tau, record)
    validate_normal_form(nf, tol)
    nf.diagnostics.update({
        "gauge_residual": gauge_residual,
        "b_residual": b_residual,
        "shear_passes": 0,
        "strip_margin": transversal.boundary_distance(
            nf.schur_form(tol)[0].diagonal()).min(initial=1.0),
        "radius": radius,
        "gauge_residual_unit": gauge_unit,
        "b_residual_unit": b_unit,
        "resonance_separation": separation,
    })
    return nf


def _series_gauge(a, form, fold, tau, order, tol):
    """``(P, separation)``: the series gauge ``P = I + P_1 z + ... +
    P_order z**order`` of ``normalize`` that keeps ``A0 = a.term(0)``, and
    the smallest gap it solves across, for ``form``, ``numkit._shift_groups``
    of the clustered Schur form of A0, and ``fold``, its ``_fold_step``.

    Order k solves ``(A0 + k tau) P_k - P_k A0 = -(A_1 P_(k-1) + ... + A_k
    P_0)``, plus the kept couplings' terms (``laurent._series``), in the
    basis ``S = q v`` of the fold, inverse ``w q^H``, where A0 is D, the
    block diagonal part of ``t`` over the groups, several of which may
    share a shift (without a fold S is q and D is ``t``): one ztrsyl on
    ``(D + k tau, D)``.  The gaps ``|d_i + k tau - d_j|`` over the diagonal
    ``d`` of ``t`` are formed once for every order, the kept blocks masked,
    and so is the stack of the triangles ``D + k tau``.  A right-hand side
    is scanned for zero only at an order whose smallest gap is within
    ``max(eps_spec, rounding)``, where a zero one is skipped rather than
    refused; elsewhere ztrsyl solves it to zero."""
    t, q, groups, _, w, _ = form
    d, levels, basis = np.diag(t), None, (q, q.conj().T)
    if fold is not None:
        levels = -np.array(fold.exponents)
        owner = np.repeat(np.arange(len(groups)), [g1 - g0 for g0, g1, _ in groups])
        t = np.where(owner[:, None] == owner, t, 0.0)
        basis = (fold.similarity, w @ q.conj().T)
    ks = np.arange(1, order + 1)[:, None, None]
    gaps = np.abs(d[:, None] - d[None, :] + tau * ks)
    if levels is not None:
        gaps[levels[None, :] - levels[:, None] == ks] = np.inf
    smallest = gaps.min(axis=(1, 2))
    with np.errstate(over="ignore"):   # a norm past the float range is inf
        rounding = _UNIT_ROUNDOFF * max(1.0, np.linalg.norm(a.term(0)))
    # ztrsyl solves a zero right-hand side to zero; only an order whose gap
    # is within eps_spec or the rounding refuses a nonzero one, so only
    # there is it scanned
    watched = (smallest <= max(tol.eps_spec, rounding)).tolist()
    close_ok = (smallest > rounding).tolist()
    # t and each D + k tau once, in the column order ztrsyl reads
    t = np.asfortranarray(t)
    shifted = np.repeat(t.T[None], order, axis=0).transpose(0, 2, 1)
    diagonal = np.arange(len(d))
    shifts = np.array([tau * k for k in range(1, order + 1)])
    shifted[:, diagonal, diagonal] = d + shifts[:, None]

    def solve(k, rhs):
        if watched[k - 1]:
            if not np.any(rhs):
                return 0.0
            if smallest[k - 1] <= tol.eps_spec:
                i, j = np.unravel_index(np.argmin(gaps[k - 1]), t.shape)
                raise SpectrumCollision(d[i] + k * tau, d[j], float(smallest[k - 1]))
        return _triangular_sylvester(shifted[k - 1], t, rhs, close_ok=close_ok[k - 1])

    series = _series(a, order, np.eye(a.dim), solve, basis=basis, levels=levels)
    return series, float(smallest.min())


def _fold_step(form):
    """The fold into the strip as one recorded shear, or None when no
    cluster shifts: for ``form = (t, q, groups, v, w, pairs)`` of
    ``numkit._shift_groups``, the similarity ``q v`` that block diagonalizes
    the constant term over its groups, and exponent ``-shift`` on each."""
    _, q, groups, v, _, _ = form
    if not groups:
        return None
    exponents = np.repeat([-shift for _, _, shift in groups],
                          [stop - start for start, stop, _ in groups])
    return ShearStep(q @ v, tuple(exponents.tolist()))


# ---------------------------------------------------------------------------
# the correspondence with commuting pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyPair:
    """Two commuting invertible matrices acting on the flat sections."""

    M1: np.ndarray
    M2: np.ndarray

    @property
    def n(self):
        return self.M1.shape[0]


def validate_monodromy(rep, tol=None):
    """Check a pair, returning its residuals: M1 and M2 invertible by their
    singular values, and commuting."""
    return _validated_monodromy(rep, tol or DEFAULT_TOL)[0]


def _validated_monodromy(rep, tol):
    """``(residuals, singular values of M1 and of M2)`` of
    ``validate_monodromy``, from one SVD call on the stacked pair; an empty
    pair has the singular values ``[1.0]``.  Matrices of different shapes,
    not square, or with an entry not finite are refused with
    ``ValidationFailure``."""
    shape = np.shape(rep.M1)
    if len(shape) != 2 or shape[0] != shape[1] or np.shape(rep.M2) != shape:
        raise ValidationFailure("M1 and M2 must be square matrices of one size, "
                                "got shapes %s and %s" % (shape, np.shape(rep.M2)))
    pair = np.array([rep.M1, rep.M2])
    if not np.isfinite(pair).all():
        raise ValidationFailure("M1 and M2 must have finite entries")
    diag, svals_of = {}, np.linalg.svd(pair, compute_uv=False) if shape[0] else np.ones((2, 1))
    for name, svals in zip(("M1", "M2"), svals_of):
        diag[name + "_smallest_singular_value"] = float(svals[-1])
        if _is_singular(svals, tol):
            raise ValidationFailure("%s is singular" % name)
    diag["commutator_residual"] = _commutator_residual(
        rep.M1, rep.M2, tol, ValidationFailure, "matrices do not commute")
    return diag, svals_of


def _commutator_residual(a, b, tol, error, message):
    """``||ab - ba||_F``, inf past the float range, raising ``error`` above
    ``eps_res max(1, ||a||_F) max(1, ||b||_F)``: tested on a and b divided by
    those factors, each reached through its largest part, so nothing overflows."""
    unit, factor = [], 1.0
    for m in (a, b):
        m = np.ascontiguousarray(m, dtype=complex)
        part = max(1.0, np.abs(m.view(float)).max(initial=0.0))
        if part != 1.0:   # x / 1.0 is x
            m = m / part
        size = max(1.0, math.sqrt(np.vdot(m, m).real))
        unit.append(m / size if size != 1.0 else m)
        factor *= float(part) * size
    comm = float(np.linalg.norm(unit[0] @ unit[1] - unit[1] @ unit[0]))
    if not comm <= tol.eps_res:   # nan too
        raise error("%s: residual %.3e" % (message, comm * factor))
    return comm * factor if comm else 0.0


def from_monodromy(rep, transversal, theta, tol=None):
    """Build the normal form whose flat sections carry the given pair.

    The connection matrix is the transversal-branch logarithm of M1 rescaled
    so that ``exp(2 pi i A0/tau) = M1``; the dilation matrix is a read-only
    copy of M2.  The logarithm is triangular in the Schur basis of M1,
    which the result keeps as the Schur form of its A0.

    The pair is validated as complex matrices, and each is decomposed once:
    the singular values of M1 decide that its logarithm exists, those of M2
    that B0 is invertible, and ``exp(2 pi i A0/tau)``, taken for
    ``log_residual``, is kept for ``monodromy``.  An empty pair is refused
    with ``ValidationFailure``, as the logarithm refuses an empty matrix.
    """
    tol = tol or DEFAULT_TOL
    m1 = as_square_matrix(rep.M1, "M1")
    m2 = np.asarray(rep.M2, dtype=complex)
    _, (svals_m1, svals_m2) = _validated_monodromy(MonodromyPair(m1, m2), tol)
    f, q = _log_schur(m1, transversal, tol, svals_m1)
    b0 = m2.copy()
    b0.flags.writeable = False
    nf = NormalForm._from_schur_form(_cluster_triangular(f, q, tol), tol, b0,
                                     transversal, float(theta), complex(transversal.tau))
    exp = mat_exp(TWO_PI_I * nf.A0 / transversal.tau)
    exp.flags.writeable = False
    nf._memo.update(monodromy=exp, b_singular_values=svals_m2)
    nf.diagnostics["log_residual"] = _frobenius(exp - rep.M1)
    validate_normal_form(nf, tol)
    return nf


def monodromy(nf):
    """The commuting pair on flat sections: ``(exp(2 pi i A0/tau), B0)``,
    copies; the exponential is the one ``from_monodromy`` kept, if it made
    the form."""
    exp = nf._memo.get("monodromy")
    if exp is None:
        return MonodromyPair(mat_exp(TWO_PI_I * nf.A0 / nf.tau), nf.B0.copy())
    return MonodromyPair(exp.copy(), nf.B0.copy())


# ---------------------------------------------------------------------------
# rigid tensor structure
# ---------------------------------------------------------------------------

def _check_same_context(x, y):
    if not same_context((x.tau, y.tau), (x.theta, y.theta)):
        raise ValidationFailure("objects live over different (tau, theta)")
    if not _same_strip(x.transversal, y.transversal):
        raise TransversalMismatch("objects are normalized to different strips")


def _same_strip(s1, s2):
    return same_context((s1.tau, s2.tau), (s1.offset, s2.offset))


def tensor(x, y, tol=None):
    """Tensor product: connection matrices add across the factors, the sum
    of spectra is folded back into the strip, dilations multiply.

    Everything is built from the factors' ``_strip_form``s, which make
    their A0 and B0 read-only: with ``q t q^H`` each factor's Schur form,
    grouped by ``numkit._bounded_groups`` and ordered along the strip, the
    Kronecker sum ``A_x (x) I + I (x) A_y`` has the Schur vectors ``Q =
    (q_x (x) q_y) P`` and triangle ``t = P^T (t_x (x) I + I (x) t_y) P``,
    ``P`` a stable argsort of ``key_x[i] + key_y[j]``, the strip positions
    of the group means.  That sum does not decrease along either factor, so
    ``t`` is exactly upper triangular, and it follows the strip, so each
    cluster of the product lies contiguous.

    The product's spectral projectors are the Kronecker products of the
    factors' (Van Loan, J. Comput. Appl. Math. 123, 2000), so each pair of
    groups folds whole by the strip shift ``K`` of its mean
    (``_pair_shifts``), in one projector update as in ``numkit._fold``:
    ``f = t - tau P^T (V_x (x) V_y) diag(vec K) (W_x (x) W_y) P`` and ``A0
    = A_x (x) I + I (x) A_y`` less the same update in A0's basis
    (``_kron_update``).  No Schur iteration, Sylvester solve or product of
    two N x N matrices runs on the product, N = n_x n_y.  A pair that
    shifts with a projector too ill conditioned for the update's rounding
    is refused (``_check_pair_projectors``), as ``numkit._fold`` refuses a
    shift group.

    The result keeps ``_cluster_triangular`` of ``(f, Q)`` as its clustered
    Schur form, with a ztrsen only for a cluster whose members the order
    leaves apart, as when two folded eigenvalues meet.  It also keeps its
    factors and ``K``, from which its Hom side (``_product_side``), labels
    (``_labels``) and class (``k0_class``) are read, with no grouping of it.
    """
    tol = tol or DEFAULT_TOL
    _check_same_context(x, y)
    fx, fy = x._strip_form(tol), y._strip_form(tol)
    order = np.argsort((fx.key[:, None] + fy.key).ravel(), kind="stable")
    # entry p of the product's basis is entry (ix[p], iy[p]) of Kronecker's
    ix, iy = np.divmod(order, y.n)
    q = (fx.q[:, None, ix] * fy.q[None, :, iy]).reshape(len(order), len(order))
    # [t, A0] of the product, in Kronecker order until t is permuted in place
    ta = _kron_sum(np.array([fx.t, x.A0]), np.array([fy.t, y.A0]))
    shifts, fold_shifts = _pair_shifts(fx, fy, order, x.transversal)
    if shifts.any():
        _check_pair_projectors(fx, fy, shifts, tol)
        ex = _pieces(fx)
        ta.reshape((2,) + shifts.shape * 2)[...] -= _kron_update(
            ex, x.transversal.tau * shifts, ex if fy is fx else _pieces(fy))
    ta[0].take(order, 0).take(order, 1, out=ta[0])
    nf = NormalForm(ta[1], _kron(x.B0, y.B0), x.transversal, x.theta, x.tau,
                    diagnostics={"fold_shifts": fold_shifts})
    nf._keep(_cluster_triangular(ta[0], q, tol), tol)
    nf._memo[(tol, "factors")] = (x, y, shifts)
    return nf


class _StripForm(namedtuple("_StripForm", "q t key owner means vv ww norm")):
    """What ``tensor`` reads of one factor: its clustered Schur form ``q t
    q^H`` with the groups of ``numkit._bounded_groups`` contiguous and
    ordered by the strip position of their means (``means``); per diagonal
    entry of ``t`` its group (``owner``) and the position of that group's
    mean (``key``, which does not decrease along the diagonal); ``vv = [v,
    q v]`` and ``ww = [w, w q^H]``, ``(v, w)`` the factors of the groups'
    spectral projectors (``numkit._decouple``), upper triangular as ``t``,
    and ``(q v, w q^H)`` those of A0; and ``norm =
    |v|_F^2 |w|_F^2``, which bounds the square of each group's projector
    norm; each product builds the projectors' rank-one pieces (``_pieces``)."""


def _new_strip_form(nf, tol):
    """The ``_StripForm`` of ``nf``: its clusters ordered along the strip
    (``_along_strip``), then grouped by ``_bounded_groups``; groups that
    join clusters apart along the strip, as the pieces of a Jordan block
    that rounding spreads over its edge, are ordered again by their means
    and split again."""
    t, q, blocks, means, position = _along_strip(*nf.schur_form(tol), nf.transversal)
    group, t, q, groups, v, w, _ = _bounded_groups(t, q, blocks, tol)
    if group is not None:
        ordered = _along_strip(t, q, groups, nf.transversal)
        if ordered[0] is not t:
            v, w, _ = _decouple(ordered[0], ordered[2])
        t, q, groups, means, position = ordered
    owner = np.repeat(np.arange(len(groups)), [stop - start for start, stop, _ in groups])
    qh = q.conj().T
    return _StripForm(q, t, position[owner], owner, means, np.array([v, q @ v]),
                      np.array([w, w @ qh]), np.vdot(v, v).real * np.vdot(w, w).real)


def _pieces(f):
    """The rank-one pieces of the spectral projectors of the factor whose
    ``_StripForm`` is ``f``: ``e[0, a] = v[:, a] w[a]`` in its Schur basis
    and ``e[1, a] = q v[:, a] w[a] q^H`` in A0's."""
    return f.vv.transpose(0, 2, 1)[..., None] * f.ww[:, :, None]


def _along_strip(t, q, blocks, transversal):
    """``(t, q, blocks, means, position)``: the Schur form ``(t, q,
    blocks)``, its blocks contiguous, with the blocks ordered by the strip
    position of their means, and those means and positions in that order:
    ``_group_blocks`` moves whole blocks, so no ztrsen swap is made within
    one, and makes no call when they are in order already."""
    means = np.array([lam for _, _, lam in blocks], dtype=complex)
    position = transversal.position(means)
    order = np.argsort(position, kind="stable")
    t, q, moved = _group_blocks(t, q, blocks, np.argsort(order).tolist())
    means = means[order]
    return (t, q, [(start, stop, lam) for (start, stop, _), lam in zip(moved, means.tolist())],
            means, position[order])


def _pair_shifts(fx, fy, order, transversal):
    """``(shifts, fold_shifts)`` of ``tensor(x, y)`` from the ``_StripForm``s
    of its factors and the order ``order`` of its basis: per entry ``(i,
    j)`` of ``x.n x y.n`` the strip shift of the mean of the pair of groups
    that holds ``i`` and ``j``, with a ``TransversalBranchWarning``, as
    ``numkit._cluster_shifts`` gives for a cluster, for each pair whose
    entries ``t_x[i, i] + t_y[j, j]`` would shift otherwise (one
    ``numkit._straddling`` test, as for a cluster); and ``(mean,
    shift)`` per pair in the order of its first entry in ``order``, pairs
    of equal mean (``(g, h)`` and ``(h, g)`` of ``x (x) x``) once."""
    means = (fx.means[fx.owner][:, None] + fy.means[fy.owner]).ravel()
    shifts = transversal.shift(means)
    # the shifts are ints: nan, inf and a float past int64 have none
    if not np.abs(shifts).max(initial=0.0) < 2.0 ** 63:
        raise NumericFailure("a pair mean has no strip shift below 2**63")
    shifts = shifts.astype(int)
    # a pair of one entry is its own mean, and cannot straddle an edge
    if len(fx.means) < len(fx.owner) or len(fy.means) < len(fy.owner):
        d = (fx.t.diagonal()[:, None] + fy.t.diagonal()).ravel()
        pair = (fx.owner[:, None] * len(fy.means) + fy.owner).ravel()
        for _, i in _straddling(transversal.shift(d), shifts, pair):
            mean = means[i].item()
            _warn_straddle(mean, shifts[i], transversal.boundary_distance(mean))
    fold_shifts = dict(zip(means[order].tolist(), shifts[order].tolist()))
    return shifts.reshape(len(fx.owner), len(fy.owner)), list(fold_shifts.items())


def _check_pair_projectors(fx, fy, shifts, tol):
    """Refuse with ``NumericFailure``, as ``numkit._shift_groups`` refuses
    a fold, a product in which a pair of groups that shifts has a projector
    norm above eps_res over the unit roundoff, where the update's rounding
    would pass eps_res.  A pair's projector norm is the product of its
    groups', each at most ``|v_g|_F |w_g|_F``; the factors' ``norm`` clear
    well separated groups at once."""
    limit = (tol.eps_res / _UNIT_ROUNDOFF) ** 2
    if fx.norm * fy.norm <= limit:
        return
    nx, ny = (np.bincount(f.owner, np.einsum("ij,ij->j", f.vv[0].conj(), f.vv[0]).real)[f.owner]
              * np.bincount(f.owner, np.einsum("ij,ij->i", f.ww[0].conj(), f.ww[0]).real)[f.owner]
              for f in (fx, fy))
    worst = (nx[:, None] * ny)[shifts != 0].max()
    if not worst <= limit:
        raise NumericFailure("projector norm %.1e: shift groups too close" % math.sqrt(worst))


def _kron_sum(a, b):
    """``a[s] (x) I + I (x) b[s]`` for stacks of as many matrices, written
    into zeros through ``einsum``'s writeable diagonal views: ``O(n_a n_b
    (n_a + n_b))`` stores, where ``np.kron`` takes ``(n_a n_b)**2``."""
    (s, na), nb = a.shape[:2], b.shape[-1]
    out = np.zeros((s, na, nb, na, nb), dtype=complex)
    np.einsum("sijkj->sijk", out)[...] = a[:, :, None]
    np.einsum("sijil->sijl", out)[...] += b[:, None]
    return out.reshape(s, na * nb, na * nb)


def _kron_update(ex, k, ey):
    """``sum_ab k[a, b] ex[s, a] (x) ey[s, b]`` for the rank-one pieces
    ``ex`` and ``ey`` of two factors (``_pieces``), so ``(v_x (x) v_y)
    diag(vec k) (w_x (x) w_y)`` and its A0-basis twin, as a ``(2, n_x,
    n_y, n_x, n_y)`` view: two GEMMs per stack entry, ``k`` times ``ey``
    and ``ex`` transposed times that, where the product of the Kronecker
    matrices costs ``(n_x n_y)**3``.  Upper triangular ``v`` and ``w`` give
    an update that is exactly upper triangular in Kronecker order, the
    order of both indices, with ``k`` on its diagonal exactly."""
    nx, ny = k.shape
    m = np.swapaxes(ex.reshape(2, nx, nx * nx), 1, 2) @ (k @ ey.reshape(2, ny, ny * ny))
    return m.reshape(2, nx, nx, ny, ny).transpose(0, 1, 3, 2, 4)


def dual(x, tol=None):
    """Dual object: negative-transpose connection folded into the strip,
    inverse-transpose dilation.

    With ``q t q^H`` the Schur form of ``x.A0`` (``NormalForm.schur_form``,
    which makes ``x.A0`` read-only), ``-A0^T`` has the Schur form ``(conj(q) P) (-P t^T P) (conj(q) P)^H``,
    ``P`` the reversal permutation; it is folded by ``numkit._fold``, and
    the result keeps the clustered Schur form of its A0.
    """
    tol = tol or DEFAULT_TOL
    t, q, _ = x.schur_form(tol)
    return _folded(x, -t[::-1, ::-1].T, q[:, ::-1].conj(), np.linalg.inv(x.B0.T), tol)


def _folded(x, t, q, b0, tol):
    """The normal form over the context of ``x`` with dilation ``b0`` and A0
    the fold of ``q t q^H``, ``t`` upper triangular (``numkit._fold``),
    holding the clustered Schur form of its A0."""
    f, q, shifts = _fold(*_cluster_triangular(t, q, tol), x.transversal, tol)
    return NormalForm._from_schur_form(_cluster_triangular(f, q, tol), tol, b0,
                                       x.transversal, x.theta, x.tau,
                                       diagnostics={"fold_shifts": shifts})


def evaluation_matrix(n):
    """Pairing ``x (x) dual(x) -> unit`` as a 1 x n^2 matrix (Kronecker order)."""
    return np.eye(n, dtype=complex).reshape(1, n * n)


def coevaluation_matrix(n):
    """Unit morphism ``unit -> dual(x) (x) x`` as an n^2 x 1 matrix."""
    return np.eye(n, dtype=complex).reshape(n * n, 1)


def evaluation_map(x, tol=None):
    """The evaluation, as a concrete morphism ``x (x) dual(x) -> unit``."""
    src = tensor(x, dual(x, tol), tol)
    tgt = unit_object(x.theta, x.tau, x.transversal)
    return Morphism(src, tgt, evaluation_matrix(x.n))


def coevaluation_map(x, tol=None):
    """The coevaluation, as a concrete morphism ``unit -> dual(x) (x) x``."""
    src = unit_object(x.theta, x.tau, x.transversal)
    tgt = tensor(dual(x, tol), x, tol)
    return Morphism(src, tgt, coevaluation_matrix(x.n))


def braiding(x, y, tol=None):
    """The symmetry ``x (x) y -> y (x) x`` as a concrete morphism: the
    Kronecker swap ``u (x) v -> v (x) u``, a permutation matrix, so that
    ``braiding(y, x).phi @ braiding(x, y).phi`` is the identity exactly."""
    src, tgt = tensor(x, y, tol), tensor(y, x, tol)
    size = x.n * y.n
    swap = np.eye(size, dtype=complex).reshape(x.n, y.n, size).transpose(1, 0, 2)
    return Morphism(src, tgt, swap.reshape(size, size))


def triangle_residuals(x):
    """Deviation of the two rigidity triangle identities from the identity."""
    n = x.n
    eps = evaluation_matrix(n)
    eta = coevaluation_matrix(n)
    eye = np.eye(n)
    first = np.kron(eps, eye) @ np.kron(eye, eta)
    second = np.kron(eye, eps) @ np.kron(eta, eye)
    return (float(np.linalg.norm(first - eye)), float(np.linalg.norm(second - eye)))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    """A constant matrix intertwining two normal forms."""

    source: NormalForm
    target: NormalForm
    phi: np.ndarray

    def residuals(self):
        ra = float(np.linalg.norm(self.phi @ self.source.A0 - self.target.A0 @ self.phi))
        rb = float(np.linalg.norm(self.phi @ self.source.B0 - self.target.B0 @ self.phi))
        return ra, rb

    def is_valid(self, tol=None):
        tol = tol or DEFAULT_TOL
        scale = max(1.0, float(np.linalg.norm(self.phi)))
        ra, rb = self.residuals()
        sa = scale * max(1.0, np.linalg.norm(self.source.A0), np.linalg.norm(self.target.A0))
        sb = scale * max(1.0, np.linalg.norm(self.source.B0), np.linalg.norm(self.target.B0))
        slack = _MORPHISM_SLACK * tol.eps_res
        return ra <= slack * sa and rb <= slack * sb


def hom_basis(x, y, tol=None):
    """Orthonormal basis of the space of morphisms ``x -> y``.

    Both arguments must be normalized to the same strip.  A morphism maps
    each generalized eigenspace of ``x.A0`` into the one of ``y.A0`` with the
    same eigenvalue and vanishes between different eigenvalues, whose
    Sylvester equation is uniquely solvable; so the space is solved one
    eigenvalue component at a time on the groups of both objects' strip forms
    (``_hom_components``), and the morphisms of all components are
    orthonormalized together by one QR factorization, LAPACK's zgeqrf and
    zungqr called directly (``numkit._orthonormal_columns``).  Completeness of
    constant intertwiners is exactly the mode-exclusion argument checked by
    ``hom_mode_dims``.
    """
    tol = tol or DEFAULT_TOL
    _check_same_context(x, y)
    if x.n == 0 or y.n == 0:
        return []
    side_x, side_y = _hom_side(x, tol), _hom_side(y, tol)
    phis = [y_basis @ kernel @ x_left for y_basis, kernel, x_left
            in _hom_components(x, side_x, y, side_y, 0, tol)]
    if not phis:
        return []
    phis = np.concatenate(phis)
    basis = _orthonormal_columns(phis.reshape(phis.shape[0], -1).T)
    return [Morphism(x, y, phi) for phi in basis.T.reshape(-1, y.n, x.n)]


# Groups of the two objects of a Hom whose means lie within this radius of
# each other, relative to the scale of A0, are solved as one component.
_COMPONENT_RADIUS = 1e-4


def _data_scale(side_x, side_y):
    """``(A0's scale, the data's)`` of the objects of two ``_HomSide``s:
    max(1, ||A0||_F of both), and with both ||B0||_F."""
    scale = max(1.0, side_x.a_norm, side_y.a_norm)
    return scale, max(scale, side_x.b_norm, side_y.b_norm)


class _HomSide(namedtuple("_HomSide", "means start size u lh ab a_norm b_norm")):
    """What ``_hom_components`` reads of one object, per group g of its
    ``_StripForm`` (of a product, per pair of factor groups): the mean; the
    ``size[g]`` columns of ``u`` from ``start[g]`` on, an orthonormal basis
    of its invariant subspace, and those rows of ``lh``, the left factor of
    its projector; ``ab = [lh A0 u, lh B0 u]``; ||A0||_F and ||B0||_F, or
    None while only a product has read the side: a product's Hom reads
    none of its factors' norms, so they wait for the object's own Hom, and
    A0 and B0, read-only since the side was built, still hold their data."""


def _hom_side(nf, tol, strip=False):
    """The ``_HomSide`` of a normal form, kept with its arrays and B0 read-only so
    that its norms stay true: read off a product's factors (``_product_side``),
    else, or with ``strip`` as a product reads a factor, off its ``_StripForm``;
    with ``strip``, without the norms if they are not taken yet."""
    kept = None if strip else nf._memo.get((tol, "factors"))
    key = (tol, "side" if kept is None else "hom")
    side = nf._memo.get(key)
    if side is None:
        parts = _strip_side(nf, tol) if kept is None else _product_side(nf, *kept, tol)
        side = nf._memo[key] = _HomSide(*parts, None, None)
        for array in (nf.B0,) + parts:
            array.flags.writeable = False
    if side.a_norm is None and not strip:
        side = nf._memo[key] = side._replace(a_norm=np.linalg.norm(nf.A0),
                                             b_norm=np.linalg.norm(nf.B0))
    return side


def _strip_side(nf, tol):
    """The parts of the ``_HomSide`` read off the ``_StripForm`` of ``nf``,
    each right factor orthonormalized by its Gram matrix's Cholesky factor."""
    f = nf._strip_form(tol)
    size = np.bincount(f.owner)
    rho, rho_inv = _cholesky_pair(f.vv[0], f.owner)
    u, lh = f.vv @ rho_inv, rho @ f.ww   # in the Schur basis and in A0's
    ab = lh @ np.array([f.t, nf.B0]) @ u   # [lh A0 u, lh B0 u]: A0 as t, B0 in A0's basis
    return f.means, np.cumsum(size) - size, size, u[1], lh[1], ab


def _product_side(nf, x, y, shifts, tol):
    """The parts of the ``_HomSide`` of ``nf = tensor(x, y)`` from its
    factors' strip sides, with no grouping or factorization at its order:
    its projectors are the Kronecker products of theirs (Horn & Johnson,
    Topics in Matrix Analysis, section 4.4), so each pair ``(g, h)`` of
    their groups is one group, of mean ``mean_g + mean_h - tau K`` (``K``
    the pair's strip shift), basis ``u_g (x) u_h``, left factor ``lh_g (x)
    lh_h``, A0 ``a_g (x) I + I (x) a_h - tau K`` and B0 ``b_g (x) b_h``;
    ``(g, h)`` and ``(h, g)`` of x (x) x are two groups, which
    ``_hom_components`` joins."""
    sx, sy = _hom_side(x, tol, strip=True), _hom_side(y, tol, strip=True)
    a = _kron_sum(sx.ab[:1], sy.ab[:1])
    a.reshape(-1)[::len(a[0]) + 1] -= nf.tau * shifts.ravel()
    # [b (x) b, u (x) u, lh (x) lh]
    k = _kron(np.array([sx.ab[1], sx.u, sx.lh]), np.array([sy.ab[1], sy.u, sy.lh]))
    ab, u, lh = np.concatenate([a, k[:1]]), k[1], k[2]
    if len(sx.size) < x.n and len(sy.size) > 1:
        # the columns of each pair of groups together, in Kronecker order within
        fx, fy = x._strip_form(tol), y._strip_form(tol)
        order = np.argsort((fx.owner[:, None] * len(fy.means) + fy.owner).ravel(), kind="stable")
        u, lh, ab = u[:, order], lh[order], ab[:, order[:, None], order]
    size = (sx.size[:, None] * sy.size).ravel()
    means = sx.means[:, None] + sy.means - nf.tau * shifts[sx.start][:, sy.start]
    return means.ravel(), np.cumsum(size) - size, size, u, lh, ab


def _hom_components(x, side_x, y, side_y, k, tol):
    """The intertwiners of mode ``k``, ``phi A_x = (A_y + k tau) phi`` and
    ``phi B_x = q^k B_y phi``, one eigenvalue component at a time, from the
    ``_hom_side`` data of both objects.

    The components are the connected parts of one graph over the groups
    of both ``_HomSide``s (a product's, pairs of groups): an edge joins two
    groups whose means lie within ``_COMPONENT_RADIUS`` times the scale of
    A0, found by one sort (``numkit._near_pairs``).  A component holding
    groups of one side only carries no intertwiner.  On the components both
    sides are restricted to orthonormal bases of their invariant subspaces
    (``_component_bases``), and the kernel of that small Kronecker system,
    ranked by ``_nullspace_scaled`` against the data scale, B0 included, as
    the whole system would be, is the component's part of the space.

    Returns stacks ``(y_basis, kernel, x_left)``, one per shape of the
    components' systems: the morphisms are ``y_basis[j] @ kernel[j] @
    x_left[j]``, ``y_basis[j]`` an orthonormal basis on y's side and
    ``x_left[j]`` the left factor of x's spectral projector.
    """
    shift, step = x.tau * k, abs(x.tau) * abs(k)
    a_scale, scale = _data_scale(side_x, side_y)
    radius = _COMPONENT_RADIUS * (a_scale + step)
    means_y = side_y.means + shift
    lhx, abx, uy, aby, classes = _graph_components(side_x, side_y, means_y, radius)
    out = []
    for (mx, my), starts in sorted(classes.items()):
        starts = np.array(starts)
        ix = starts[:, :1] + np.arange(mx)
        iy = starts[:, 1:] + np.arange(my)
        diag_y = _blocks(aby, iy)
        if k:
            diag_y[:, 0] += shift * np.eye(my)
            diag_y[:, 1] *= x.q ** k
        diag_x = _blocks(abx, ix).transpose(0, 1, 3, 2)
        # the rows of phi A_x - A_y phi, then those of phi B_x - B_y phi; in a
        # one-column system the Kronecker factors are 1, and it is their difference
        system = (diag_x - diag_y if mx * my == 1
                  else _kron(diag_x, np.eye(my)) - _kron(np.eye(mx), diag_y))
        which, kernel = _nullspace_scaled(system.reshape(len(starts), -1, mx * my),
                                          scale + step, tol)
        if len(kernel):
            # phi vectorized in column-major order
            kernel = kernel.reshape(-1, mx, my).transpose(0, 2, 1)
            out.append((uy[:, iy[which]].transpose(1, 0, 2), kernel, lhx[ix[which]]))
    return out


def _graph_components(side_x, side_y, means_y, radius):
    """The components of the graph of ``_hom_components`` over the groups
    of ``side_x`` and of ``side_y`` (means ``means_y``), an edge joining two
    groups whose means lie within ``radius``: ``(lhx, abx, uy, aby,
    classes)``, the bases of ``_component_bases`` on x's and y's side, and
    per shape ``(m_x, m_y)`` the starts in them of the components that join
    both sides, in the order of the components.

    When each near pair joins a group of x to one of y, and no group is in
    two pairs, the components that join both sides are those pairs, one
    group on each side, read straight off them: their bases are the sides'
    own arrays, and they are in the order of their groups of x, their
    first vertices.  Otherwise the pairs are labelled into components
    (``numkit._components``)."""
    split = len(side_x.means)
    i, j = _near_pairs(np.concatenate([side_x.means, means_y]), radius)
    gx, gy = j.tolist(), (i - split).tolist()
    if min(gy, default=0) >= 0 and max(gx, default=-1) < split \
            and len(set(gx)) == len(set(gy)) == len(gx):
        start_x, size_x, start_y, size_y = (
            a.tolist() for a in (side_x.start, side_x.size, side_y.start, side_y.size))
        classes = {}
        for g, h in sorted(zip(gx, gy)):
            classes.setdefault((size_x[g], size_y[h]), []).append((start_x[g], start_y[h]))
        return side_x.lh, side_x.ab, side_y.u, side_y.ab, classes
    component = _components(split + len(means_y), i, j)
    live = set(component[:split]) & set(component[split:])
    if not live:
        return None, None, None, None, {}
    keys_x, index_x = _side_keys(component[:split], live)
    keys_y, index_y = _side_keys(component[split:], live)
    _, lhx, abx, x_at, x_size = _component_bases(side_x, keys_x)
    uy, _, aby, y_at, y_size = _component_bases(side_y, keys_y)
    classes = {}
    for c in sorted(live):
        i, j = index_x[c], index_y[c]
        classes.setdefault((x_size[i], y_size[j]), []).append((x_at[i], y_at[j]))
    return lhx, abx, uy, aby, classes


def _cholesky_pair(v, owner):
    """``(rho, rho^-1)`` for the Cholesky factor ``rho`` of the Gram matrix
    of ``v`` restricted to the blocks of columns with equal ``owner``: each
    block of ``v rho^-1`` is orthonormal."""
    gram = v.conj().T @ v
    gram *= owner[:, None] == owner
    rho, info = scipy.linalg.lapack.zpotrf(gram)
    if info != 0:
        raise NumericFailure("invariant subspace basis is degenerate (zpotrf info %d)"
                             % info)
    return rho, scipy.linalg.lapack.ztrtri(rho)[0]


def _side_keys(component, live):
    """Per group of one side, its live component numbered in order of
    first appearance on that side, or -1; and that numbering."""
    index = {}
    keys = [index.setdefault(c, len(index)) if c in live else -1 for c in component]
    return np.array(keys), index


def _blocks(ab, rows):
    """The diagonal blocks ``ab[:, r][:, :, r]`` for each row ``r`` of
    ``rows``, stacked: shape ``(len(rows), 2, m, m)``."""
    return ab[:, rows[:, :, None], rows[:, None, :]].transpose(1, 0, 2, 3)


def _kron(a, b):
    """``np.kron`` of the matrices in the last two axes, broadcast over the
    others."""
    p, s = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * s, p * s))


def _component_bases(side, keys):
    """One side of ``_hom_components``: for the components numbered 0, 1,
    ... by ``keys`` (one per group, -1 for none), orthonormal bases ``u``
    of their invariant subspaces, the left factors ``lh`` of their spectral
    projectors, and ``ab``, A0 and B0 on them.

    A component is a union of groups.  When each is a single group, these
    are the side's own arrays; otherwise the columns of each component's
    groups are taken side by side, and those of a component of several
    groups are orthonormalized together by the Cholesky factor of their
    Gram matrix, the components of one size in one batched factorization
    and inversion.

    Returns ``(u, lh, ab, at, size)``: component i has the ``size[i]``
    columns of ``u`` from ``at[i]`` on, and ``ab = [lh A0 u, lh B0 u]``
    holds its blocks on the diagonal (those off it are left as they were).
    """
    count = keys.max() + 1
    live = np.flatnonzero(keys >= 0)
    if len(live) == count:
        at, size = np.empty(count, dtype=int), np.empty(count, dtype=int)
        at[keys[live]], size[keys[live]] = side.start[live], side.size[live]
        return side.u, side.lh, side.ab, at.tolist(), size.tolist()
    live = live[np.argsort(keys[live], kind="stable")]
    sizes = side.size[live]
    ends = np.cumsum(sizes)
    taken = np.arange(ends[-1]) + np.repeat(side.start[live] - ends + sizes, sizes)
    size = np.bincount(keys[live], sizes, minlength=count).astype(int)
    at = np.cumsum(size) - size
    joined = np.bincount(keys[live], minlength=count) > 1
    u, lh, ab = side.u[:, taken], side.lh[taken], side.ab[:, taken[:, None], taken]
    for m in np.unique(size[joined]).tolist():
        # the columns of the joined components of size m, one row each
        c = at[joined & (size == m)][:, None] + np.arange(m)
        uc = u[:, c].transpose(1, 0, 2)
        try:
            # the upper factors rho of the Gram matrices, gram = rho^H rho
            rho = np.linalg.cholesky(uc.conj().transpose(0, 2, 1) @ uc).conj().transpose(0, 2, 1)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure("invariant subspace basis is degenerate: %s" % exc)
        rho_inv = np.linalg.inv(rho)
        u[:, c], lh[c] = (uc @ rho_inv).transpose(1, 0, 2), rho @ lh[c]
        rows, cols = c[:, :, None], c[:, None, :]
        ab[:, rows, cols] = rho @ ab[:, rows, cols] @ rho_inv
    return u, lh, ab, at.tolist(), size.tolist()


def _nullspace_scaled(m, scale, tol):
    """Kernels of a stack of matrices: ``(which, rows)``, the kernel basis
    vectors as rows, ``which[j]`` the matrix of row j.

    Singular values above ``eps_res * scale`` count to each rank: the
    decision is scaled by the object data, not by the matrices themselves,
    which are pure noise for numerically equal objects.

    A stack of one-column matrices, the systems of components of one group
    on each side, takes no SVD: a column's singular value is its 2-norm
    (``np.hypot``, which neither overflows nor underflows), and zgesdd's
    right singular vector of one column is exactly 1.
    """
    if m.shape[-1] == 1:
        s = np.hypot.reduce(np.abs(m), axis=-2)
        vh = np.ones(s.shape + (1,), dtype=complex)
    else:
        try:
            _, s, vh = np.linalg.svd(m)
        except np.linalg.LinAlgError:
            # the divide-and-conquer SVD can fail to converge where plain QR
            # iteration does not
            try:
                parts = [scipy.linalg.svd(mk, lapack_driver="gesvd") for mk in m]
            except np.linalg.LinAlgError as exc:
                raise NumericFailure("SVD of the intertwining system did not "
                                     "converge: %s" % exc)
            s = np.array([part[1] for part in parts])
            vh = np.array([part[2] for part in parts])
    rank = (s > tol.eps_res * scale).sum(axis=-1)
    null = np.arange(vh.shape[-1]) >= rank[:, None]
    return np.nonzero(null)[0], vh[null].conj()


def hom_mode_dims(x, y, k_range=8, tol=None):
    """Dimensions of would-be intertwiners carried by each power of z.

    Mode k compares the labels of x with those of y shifted by ``(k tau,
    q^k)``, one eigenvalue component at a time as in ``hom_basis``.  For
    presentations sharing one strip no eigenvalues meet, so every nonzero
    mode vanishes without a solve; the scan makes that exclusion checkable
    rather than assumed.
    """
    tol = tol or DEFAULT_TOL
    _check_same_context(x, y)
    modes = [k for k in range(-k_range, k_range + 1) if k != 0]
    if x.n == 0 or y.n == 0:
        return dict.fromkeys(modes, 0)
    side_x, side_y = _hom_side(x, tol), _hom_side(y, tol)
    return {k: sum(len(kernel) for _, kernel, _
                   in _hom_components(x, side_x, y, side_y, k, tol))
            for k in modes}


def is_isomorphic(x, y, tol=None, seed=0, trials=32):
    """Search for an invertible intertwiner; returns it or None.

    Random linear combinations of a hom basis are tested for invertibility
    by their singular values, ``sigma_min > eps_res * sigma_max``, which,
    unlike the determinant, does not shrink as the n-th power of the
    matrix's scale (Higham 2002, section 14.6); invertibility is an open
    condition, so a handful of seeded trials suffices whenever an
    isomorphism exists.
    """
    tol = tol or DEFAULT_TOL
    if x.n != y.n:
        return None
    if x.n == 0:
        return Morphism(x, y, np.zeros((0, 0), dtype=complex))
    forward = hom_basis(x, y, tol)
    backward = hom_basis(y, x, tol)
    if not forward or not backward:
        return None
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeff = rng.normal(size=len(forward)) + 1j * rng.normal(size=len(forward))
        phi = sum(c * m.phi for c, m in zip(coeff, forward))
        svals = np.linalg.svd(phi, compute_uv=False)
        if svals[-1] > tol.eps_res * svals[0]:
            return Morphism(x, y, phi)
    return None


def kernel(m, tol=None):
    """Kernel object and its inclusion into the source.

    A ``phi`` that does not intertwine source and target
    (``Morphism.is_valid``) is refused with ``ValidationFailure`` naming
    both residuals, here and in ``cokernel`` and ``image``.  The object's
    diagnostics record the rank decision on ``phi`` and how far the kernel
    is from invariant (see ``_subobject``).
    """
    tol = tol or DEFAULT_TOL
    _check_intertwines(m, tol)
    v, _, s, rank = _svd_split(m.phi, tol)
    ker = _subobject(m.source, v, s, rank)
    return ker, Morphism(ker, m.source, v)


def cokernel(m, tol=None):
    """Cokernel object and the projection from the target, with the
    diagnostics of ``kernel``."""
    tol = tol or DEFAULT_TOL
    _check_intertwines(m, tol)
    w, _, s, rank = _svd_split(m.phi.conj().T, tol)
    cok = _subobject(m.target, w, s, rank, quotient=True)
    return cok, Morphism(m.target, cok, w.conj().T)


def image(m, tol=None):
    """Image object inside the target, with its inclusion and the
    diagnostics of ``kernel``."""
    tol = tol or DEFAULT_TOL
    _check_intertwines(m, tol)
    _, u, s, rank = _svd_split(m.phi, tol)
    basis = u[:, :rank] if m.phi.size else np.zeros((m.target.n, 0), dtype=complex)
    img = _subobject(m.target, basis, s, rank)
    return img, Morphism(img, m.target, basis)


def _check_intertwines(m, tol):
    """Refuse ``m`` unless source and target live over one context
    (``_check_same_context``) and it is a morphism (``Morphism.is_valid``),
    with ``ValidationFailure`` naming the A and B residuals."""
    _check_same_context(m.source, m.target)
    if not m.is_valid(tol):
        raise ValidationFailure("phi does not intertwine source and target: A residual "
                                "%.3e, B residual %.3e" % m.residuals())


def _subobject(nf, v, s, rank, quotient=False):
    """``nf`` compressed to the orthonormal columns of ``v``, the kernel,
    image or cokernel of a map ``phi`` with singular values ``s`` of which
    ``rank`` are kept.

    Diagnostics: ``phi_rank``; the largest dropped and the smallest kept
    singular value, each over the largest (0.0 where there is none); and
    the invariance residual ``||A0 v - v a0|| / max(1, ||A0||)``, for a
    quotient ``||a0 v^H - v^H A0|| / max(1, ||A0||)``, the projection's.
    """
    a0 = v.conj().T @ nf.A0 @ v
    b0 = v.conj().T @ nf.B0 @ v
    smax = s[0] if s.size else 0.0
    if quotient:
        residual = np.linalg.norm(a0 @ v.conj().T - v.conj().T @ nf.A0)
    else:
        residual = np.linalg.norm(nf.A0 @ v - v @ a0)
    diagnostics = {
        "phi_rank": rank,
        "dropped_singular_ratio": float(s[rank] / smax) if rank < s.size and smax else 0.0,
        "kept_singular_ratio": float(s[rank - 1] / smax) if rank else 0.0,
        "invariance_residual": float(residual) / max(1.0, float(np.linalg.norm(nf.A0))),
    }
    return NormalForm(a0, b0, nf.transversal, nf.theta, nf.tau, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# composition series, K-classes, flat sections
# ---------------------------------------------------------------------------

def decompose(nf, tol=None):
    """Composition series as the list of simple labels ``(lam, b)``, sorted
    lexicographically on (Re, Im) of ``lam``, then of ``b``, each part
    rounded to 9 decimals as Python's ``round`` rounds it, ties in the
    order of the clusters (``numkit._lex_order``).

    The shared clustered Schur form of A0 (``NormalForm.schur_form``) puts
    each eigenvalue cluster in a contiguous diagonal block.  B0 commutes with A0, so in the same basis it
    is block upper triangular on those clusters; a cluster's labels pair its
    eigenvalue with each eigenvalue of its diagonal block of B0, and the
    multiset of labels is the joint spectrum with multiplicity.  A part of
    B0 below the blocks larger than ``eps_key`` relative to B0 means the pair
    does not commute to that accuracy and raises ``NumericFailure``, as does
    a diagonal block of B0 in that basis with an entry that is not finite.  Where every cluster
    is one eigenvalue, the labels of B0 are its diagonal in that basis.
    """
    labels = _labels(nf, tol or DEFAULT_TOL)
    return list(zip(labels[:, 0].tolist(), labels[:, 1].tolist()))


def _pairwise(x, y):
    """The rows ``(x_i0 + y_j0, x_i1 y_j1)`` over the rows i of the complex
    ``(m, 2)`` array ``x`` and j of ``y``, i-major: a tensor product's
    labels ``(lam, b)`` and its K0 keys ``(z', b)`` from its factors'.  Each
    product is rounded as Python's complex product rounds it, where numpy's
    may fuse a product and a sum, so both carry the same bits; a row that is
    not finite raises ``NumericFailure``."""
    out = np.empty((len(x), len(y), 2), dtype=complex)
    np.add(x[:, None, 0], y[:, 0], out=out[..., 0])
    re, im, b = x[:, None, 1].real, x[:, None, 1].imag, y[:, 1]
    np.subtract(re * b.real, im * b.imag, out=out[..., 1].real)
    np.add(re * b.imag, im * b.real, out=out[..., 1].imag)
    if not np.isfinite(out).all():
        raise NumericFailure("no labels: a product of the factors' labels is not finite")
    return out.reshape(-1, 2)


def _labels(nf, tol):
    """The labels of ``decompose`` as an ``(m, 2)`` complex array of rows
    ``(lam, b)``, in its order.  A result of ``tensor`` has the pairwise
    rows ``(lam_i + mu_j, b_i c_j)`` of its factors' labels, the sum reduced
    into the strip and the product rounded as its K0 class rounds it
    (``_pairwise``).  Otherwise B0 in the Schur basis is ``q^H B0 q``, the
    blocks of it of one size take one batched ``eigvals`` call, bit for bit
    the values of one call per block, and the labels are held, keyed and
    ordered as arrays.  When every block is one entry, the b-labels are
    read off the diagonal: ``eigvals`` of a 1 x 1 matrix is its entry,
    except that beyond about 1e+-140 LAPACK's zgeev scales the matrix first
    and may move the last bit, where the entry is the exact value."""
    kept = nf._memo.get((tol, "factors"))
    if kept is not None:
        labels = _pairwise(_labels(kept[0], tol), _labels(kept[1], tol))
        labels[:, 0] -= nf.transversal.shift(labels[:, 0]) * nf.tau
        return labels[_lex_order(labels)]
    t, q, blocks = nf.schur_form(tol)
    b = q.conj().T @ nf.B0 @ q
    starts, sizes, means = _block_arrays(blocks)
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    below = _frobenius(b[cluster[:, None] > cluster[None, :]])
    if below > tol.eps_key and below > tol.eps_key * max(1.0, _frobenius(nf.B0)):
        raise NumericFailure("dilation is not block triangular on the eigenvalue "
                             "clusters of A0: below-block norm %.3e" % below)
    labels = np.empty((len(cluster), 2), dtype=complex)
    labels[:, 0] = np.repeat(means, sizes)
    if len(blocks) == len(b):
        labels[:, 1] = b.diagonal()
        if not np.isfinite(labels[:, 1]).all():
            raise NumericFailure("no labels: the dilation in the Schur basis of A0 has "
                                 "diagonal entries that are not finite")
    else:
        for size in np.unique(sizes).tolist():
            # a cluster's labels sit at its rows of the diagonal
            rows = starts[sizes == size][:, None] + np.arange(size)
            try:
                labels[rows, 1] = np.linalg.eigvals(b[rows[:, :, None], rows[:, None, :]])
            except np.linalg.LinAlgError as exc:   # entries not finite, or no convergence
                raise NumericFailure("no labels: the diagonal blocks of the dilation in "
                                     "the Schur basis of A0: %s" % exc)
    return labels[_lex_order(labels)]


class K0Class(_FormalSum):
    """Formal integer combination of simple labels ``(b, z')`` with ``z'``
    reduced into the ambient strip (``_canon``), a ``numkit._FormalSum`` on
    the rows ``(z', b)``, ordered on (Re, Im) of z', then of b, each rounded
    to 9 decimals as Python's ``round`` rounds it.  Keys within ``eps_key``
    merge, the radius scaled by the size of each part of the key above 1, so
    labels carrying rounding at their own scale still collide; keys hugging
    the right strip edge fold to the left edge so equal cosets collide.
    """

    _mismatch = functools.partial(TransversalMismatch, "K-classes live over different strips")

    def __init__(self, transversal, entries=(), tol=None):
        entries = list(entries)
        keys = np.array([(zp, b) for b, zp, _ in entries], dtype=complex).reshape(-1, 2)
        self._set(transversal, keys, np.array([int(m) for _, _, m in entries], dtype=np.int64),
                  tol)

    @classmethod
    def _of_labels(cls, transversal, labels, tol):
        """The class of ``_labels``' rows ``(z', b)``, each once."""
        return cls.__new__(cls)._set(transversal, labels, np.ones(len(labels), dtype=np.int64),
                                     tol, ordered=True)

    def _set(self, transversal, keys, mults, tol, ordered=False):
        """Reduce the z' of the rows ``(z', b)`` and keep them (``_keep``),
        ``ordered`` while no z' moves; returns ``self``."""
        self.transversal = transversal
        self.tol = tol or DEFAULT_TOL
        rep, inside = self._canon(keys[:, 0])
        ordered = ordered and (inside or (rep == keys[:, 0]).all())
        keys = keys.copy()
        keys[:, 0] = rep
        return self._keep(keys, mults, ordered)

    def _radius(self, keys):
        return self.tol.eps_key * np.maximum(1.0, np.abs(keys))

    def _same(self, other):
        return _same_strip(self.transversal, other.transversal)

    @property
    def entries(self):
        """The entries ``(b, z', multiplicity)`` in order, as Python numbers."""
        return tuple(zip(self._keys[:, 1].tolist(), self._keys[:, 0].tolist(),
                         self._mults.tolist()))

    def _canon(self, zp):
        """``(rep, inside)``: the array ``zp`` reduced into the strip, values
        within ``eps_key / |tau|`` of its right edge folded to the left
        edge, each to the bits its reduction alone gives; and whether every
        position lies ``_SNAP_TOL`` inside the left edge and inside the
        fold, where no value snaps, shifts or folds: each shift is 0.0, and
        no value moves but for the sign of a zero part."""
        strip, tau = self.transversal, self.transversal.tau
        edge = 1.0 - self.tol.eps_key / abs(tau)
        pos = strip.position(zp)
        if pos.max(initial=0.0) <= min(edge, 1.0 - 2 * _SNAP_TOL) \
                and pos.min(initial=1.0) >= _SNAP_TOL:
            return zp - np.zeros(len(zp)) * tau, True
        rep = zp - strip.shift_at(pos) * tau
        far = strip.position(rep) > edge
        if np.count_nonzero(far):
            np.subtract(rep, tau, out=rep, where=far)
        return rep, False

    def __mul__(self, other):
        """The class of a tensor product: the keys of every pair of entries
        (``_pairwise``) with the product of their multiplicities."""
        self._check(other)
        return K0Class.__new__(K0Class)._set(self.transversal, _pairwise(self._keys, other._keys),
                                             (self._mults[:, None] * other._mults).ravel(),
                                             self.tol)

    total_degree = _FormalSum._degree

    def same_class(self, other):
        return not (self - other)._mults.size

    def __repr__(self):
        return "K0Class(%s)" % (list(self.entries),)


def k0_class(nf, tol=None):
    """Class of an object in the Grothendieck group: the multiset of its
    simple labels, additive along exact sequences, kept in its memo with B0
    read-only; of a result of ``tensor``, the product of its factors'
    classes (``K0Class.__mul__``), so that K0 is multiplicative by
    construction.  Keys merge within a radius, so where a factor's labels
    merge, as the rounded eigenvalues of a Jordan block, the class of the
    product's own labels may merge otherwise."""
    tol = tol or DEFAULT_TOL
    cls = nf._memo.get((tol, "k0"))
    if cls is None:
        kept = nf._memo.get((tol, "factors"))
        cls = nf._memo[(tol, "k0")] = (
            K0Class._of_labels(nf.transversal, _labels(nf, tol), tol) if kept is None
            else k0_class(kept[0], tol) * k0_class(kept[1], tol))
        nf.B0.flags.writeable = False
    return cls


def h0_dim(nf_or_matrix, tau=None, tol=None):
    """Dimension of global flat sections.

    A Laurent section ``sum f_k z^k`` is flat precisely when each ``f_k``
    lies in ``ker(A0 + tau k I)``, so only eigenvalues of A0 sitting on the
    ray ``-tau Z`` contribute; the sum is finite.  The eigenvalues are the
    diagonal of a Schur form, for a normal form its ``schur_form(tol)``.  A
    matrix that is not square or has an entry that is not finite raises
    ``ValidationFailure``.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(nf_or_matrix, NormalForm):
        a0, tau = nf_or_matrix.A0, nf_or_matrix.tau
        schur = nf_or_matrix.schur_form(tol)[0]
    else:
        if tau is None:
            raise ValidationFailure("matrix input needs an explicit tau")
        a0 = as_square_matrix(nf_or_matrix, "nf_or_matrix")
        schur = _schur(a0)[0]
    if a0.shape[0] == 0:
        return 0
    total = 0
    seen = set()
    slack = _FLAT_SLACK * tol.eps_spec
    scale = max(1.0, float(np.linalg.norm(a0)), abs(tau))
    for lam in np.diag(schur):
        t = -lam / tau
        k = round(t.real)
        if abs(t - k) > slack * scale / abs(tau) or k in seen:
            continue
        seen.add(k)
        shifted = a0 + (k * tau) * np.eye(a0.shape[0])
        svals = np.linalg.svd(shifted, compute_uv=False)
        smax = max(float(svals[0]), 1.0)
        total += int(np.sum(svals <= slack * smax))
    return total
