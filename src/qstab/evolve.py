"""Desk-scale dynamics: collision discretization and a master-equation oracle.

The continuous evolution driven by vacuum noise is discretized by repeated
interactions: at every step the system meets a fresh truncated-mode ancilla
prepared in vacuum and they evolve jointly by

    U_step = exp( (-i H dt) (x) I  +  sqrt(dt) ( L (x) a†  -  L† (x) a ) ),

which is exactly unitary by construction (the exponent X is anti-Hermitian,
and U_step = W exp(-i lam) W† from one eigendecomposition iX = W lam W†), so
the algebraic identities of a genuine unitary flow -- products of flowed
operators equal flowed products -- hold exactly at every step, and the
discretization errs only at O(dt) in expectations.  Contracting one step
against the ancilla vacuum reproduces the continuous drift: <0|U_step|0> =
I - iH dt - (1/2) L†L dt + O(dt^2), the damping term arising at second
order from the coupling.  Nontrivial scattering would need a different step
construction and is rejected rather than approximated.

Every ancilla meets the system exactly once, so the chain is a sequentially
generated matrix-product state of bond dimension d and each ancilla is
traced out as soon as its collision ends.  The simulation steps the reduced
state at O((levels+1) d^3) per step; since the flow is a *-homomorphism,
the terms whose coefficient is a multiple of the identity are read from it
like an observable.  Only a non-scalar coefficient carries a pair state of
d^4 entries, at O((levels+1)^2 d^5) per step, and a run grows linearly in
steps.
An independent oracle integrates the reduced master equation

    d rho / dt = -i[H, rho] + L rho L† - (1/2){L†L, rho}

by stepping the vectorized state with one propagator exp(L h) per run of evenly spaced
grid times, found by a vectorized test, so a uniform grid costs one matrix exponential.
That exponential is a scaling-and-squaring Pade method on numpy alone (:mod:`qstab._expm`).
It checks the density-matrix invariants once on the stacked states, within a rounding bound
that grows with the steps, and shares no error source with the collision model.  Both
engines read E[V] and the observables from their stack of states in one product.  Helper checks
compare the two routes, reproduce the quantum Ito multiplication table on a vacuum
ancilla, and test expectation trajectories against decay envelopes and transit-time bounds.

The stopped-process quantities of the theory use a genuine operator-valued
stop time; everything here works at the expectation level, so exit times
reported from trajectories are a classical surrogate and are labeled as
such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalCheckError,
    InvalidCandidateError,
    UnsupportedScatteringError,
)
from .fock import ladder_operators, vacuum_vector
from .lyapunov import _ITO_ROUTES, LyapunovCandidate, _is_scalar_matrix, _ito_coefficients, _offset, _powers
from .lyapunov import _scalar_thetas, canonicalize, evaluate
from .models import QsdeModel, require_model_dim, validate
from .operators import (
    DEFAULT_TOL,
    QuantumState,
    _frobenius,
    adjoint,
    expectation,
    norm_above,
    require_density,
    require_positive,
)


@dataclass(frozen=True)
class CollisionConfig:
    """Step size, horizon and ancilla truncation for a collision run."""

    dt: float
    steps: int
    ancilla_levels: int = 1

    def __post_init__(self):
        require_positive(self.dt, "dt")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.ancilla_levels < 1:
            raise ValueError("ancilla_levels must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid with E[V] and optional observable expectations."""

    times: np.ndarray
    v_expect: np.ndarray
    method: str
    obs_expect: dict | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        v = np.asarray(self.v_expect, dtype=float)
        if times.shape != v.shape or times.ndim != 1:
            raise ValueError("times and v_expect must be 1-d arrays of equal length")
        if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be nonempty and increase strictly from 0")
        if self.obs_expect is not None:
            for name, seq in self.obs_expect.items():
                if np.asarray(seq).shape != times.shape:
                    raise ValueError(f"observable {name!r} length differs from the time grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "v_expect", v)


def _kron(a, b):  # np.kron's own products a[i, k] * b[j, l], without its generic set-up (half its time at d = 8)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def collision_step_unitary(model: QsdeModel, dt: float, ancilla_levels: int = 1) -> np.ndarray:
    """One system (x) ancilla collision unitary exp(-iH dt + sqrt(dt) coupling).

    Requires trivial scattering (||S - I|| <= DEFAULT_TOL) and a ``dt`` whose
    products with ||H||_F and ||L||_F^2 are finite; the result is verified
    unitary to 1e-12.
    """
    validate(model)
    if norm_above(model.scattering - np.eye(model.dim), DEFAULT_TOL) > DEFAULT_TOL:
        raise UnsupportedScatteringError(
            "the collision simulator supports S = I only; nontrivial scattering is not discretized"
        )
    require_positive(dt, "dt")
    h_norm, l_norm = np.linalg.norm(model.hamiltonian), np.linalg.norm(model.coupling)  # Frobenius: no SVD
    with np.errstate(over="ignore"):  # a step past the float range is an input error, not a warning
        if not (np.isfinite(dt * h_norm) and np.isfinite(dt * l_norm * l_norm)):
            raise ValueError(f"dt must give finite dt ||H||_F and dt ||L||_F^2, got {dt!r}")
    a, a_dag, _ = ladder_operators(ancilla_levels)
    anc_eye = np.eye(ancilla_levels + 1)
    exponent = _kron(-1j * model.hamiltonian * dt, anc_eye) + np.sqrt(dt) * (
        _kron(model.coupling, a_dag) - _kron(adjoint(model.coupling), a)
    )
    lam, w = np.linalg.eigh(1j * exponent)
    u = (w * np.exp(-1j * lam)) @ adjoint(w)
    defect = norm_above(adjoint(u) @ u - np.eye(u.shape[0]), 1e-12)
    if defect > 1e-12:
        raise InternalCheckError(f"collision step is not unitary: defect {defect:.3e}")
    return u


def simulate_flow_expectation(
    model: QsdeModel,
    candidate: LyapunovCandidate,
    x0: np.ndarray,
    system_state: QuantumState,
    config: CollisionConfig,
    observables: dict | None = None,
) -> Trajectory:
    """Collision-model trajectory of E[V(X_t)] from the system state rho0.

    At step k the expectation sums Tr(Rho f(X^n) Theta f(X^m)) over the
    candidate's terms, with f the conjugation by the ordered product of k
    collision unitaries and Rho the state rho0 (any density matrix, pure or
    mixed) tensored with k vacuum ancillas.  Every ancilla meets the system
    exactly once, so it is traced out as soon as its collision ends and
    nothing grows with k.

    With E_ab = <a|U_step|b> the system blocks of the step unitary, the loop
    steps the reduced state rho -> sum_a E_a0 rho E_a0†, at O((levels+1) d^3)
    per step.  The flow is a *-homomorphism, so a term whose Theta is exactly
    Theta[0,0] I reads f(Y^n) Theta f(Y^m) = f(Theta Y^(n+m)), Y = x0 - center
    (the step fixes a scalar center): these terms sum into one operator V_s(x0)
    that is read from the reduced states like an observable.  Each distinct
    non-scalar Theta carries a pair state W of d^4 entries in the same loop,
    started at W_0 = Theta (x) rho0 and advanced by the recursion

        W'[P,Q,R,S] = sum_abc E_ac[P,p] W[p,q,r,s] conj(E_bc[Q,q])
                              E_b0[R,r] conj(E_a0[S,s]),

    and its terms read sum Y^n[s,p] W_k[p,q,r,s] Y^m[q,r].  Terms that share
    a Theta share one W, and the contraction is factored pairwise, so a step
    costs O((levels+1)^2 d^5) for each of them; a candidate with scalar Theta
    only forms no d^4 array.  A run costs the step cost times the number of
    steps.  The k = 0 value is the expectation of V(x0) in the initial state.

    ``observables`` maps names to system operators whose flowed
    expectations are recorded alongside E[V]; they are read from the
    reduced states.
    """
    require_model_dim(model, **{"system state": system_state}, candidate=candidate, x0=x0)
    cand = canonicalize(candidate)
    x0 = np.asarray(x0, dtype=complex)

    dim, width = model.dim, config.ancilla_levels + 1
    u_step = collision_step_unitary(model, config.dt, config.ancilla_levels)
    blocks = u_step.reshape(dim, width, dim, width).transpose(1, 3, 0, 2)  # blocks[a, b] = E_ab
    kraus = blocks[:, 0]

    scalar, paired = [], []
    for term in cand.terms:
        (scalar if _scalar_thetas([term]) else paired).append(term)
    v_scalar = [evaluate(LyapunovCandidate(tuple(scalar), cand.center), x0)] if scalar else []  # V_s(x0)
    if paired:
        powers = _powers(_offset(cand, x0), paired)
        thetas: list[np.ndarray] = []
        readout: list[np.ndarray] = []  # per distinct Theta, the sum of Y^n[s,p] Y^m[q,r] over its terms
        for n, m, theta in paired:
            i = next((i for i, t in enumerate(thetas) if np.array_equal(t, theta)), len(thetas))
            if i == len(thetas):
                thetas.append(theta)
                readout.append(np.zeros((dim,) * 4, dtype=complex))
            readout[i] += np.einsum("sp,qr->pqrs", powers[n][0], powers[m][0])
        readout_flat = np.array(readout).reshape(-1)
        pairs = np.einsum("tpq,rs->tpqrs", np.array(thetas), system_state.rho)

        # One pairwise contraction per factor, each O(width^2 d^5) per Theta, as np.tensordot computes it: w, its
        # free axes first, times the factor's matrix, summed axes first, formed here once.  Comments: the axes of
        # the new w.
        factors = [
            ((0, 1, 2, 4, 3), kraus.transpose(2, 0, 1).reshape(dim, -1)),  # t p q s b R
            ((0, 1, 3, 5, 2, 4), blocks.conj().transpose(3, 0, 1, 2).reshape(dim * width, -1)),  # t p s R c Q
            ((0, 2, 3, 5, 1, 4), blocks.transpose(3, 1, 0, 2).reshape(dim * width, -1)),  # t s R Q a P
            ((0, 2, 3, 5, 1, 4), kraus.conj().transpose(2, 0, 1).reshape(dim * width, -1)),  # t R Q P 1 S
        ]
        pair_vals = [(readout_flat @ pairs.reshape(-1)).real]
    kraus_dag = adjoint(kraus)
    rhos = np.empty((config.steps + 1, dim, dim), dtype=complex)
    rhos[0] = system_state.rho
    for k in range(1, config.steps + 1):
        np.matmul(kraus @ rhos[k - 1], kraus_dag).sum(axis=0, out=rhos[k])
        if paired:
            w = pairs
            for axes, mat in factors:
                w = np.dot(w.transpose(axes).reshape(-1, len(mat)), mat).reshape(len(pairs), dim, dim, dim, -1, dim)
            pairs = w[:, :, :, :, 0].transpose(0, 3, 2, 1, 4)
            pair_vals.append((readout_flat @ pairs.reshape(-1)).real)

    observables = dict(observables or {})
    reads = _traces(rhos, [*v_scalar, *observables.values()])
    parts = ([np.array(pair_vals)] if paired else []) + list(reads[: len(v_scalar)])
    return Trajectory(
        times=config.dt * np.arange(config.steps + 1),
        v_expect=np.sum(parts, axis=0),
        method="collision",
        obs_expect=dict(zip(observables, reads[len(v_scalar):])) or None,
    )


def _traces(states: np.ndarray, ops) -> np.ndarray:
    """Re Tr(rho X) for each operator X of ``ops`` (rows) and each state rho of a (T, d, d) stack (columns).

    Tr(rho X) = sum_ij rho_ij X_ji, so this is one product of the stacked vec(X^T) with the flattened stack.
    """
    d = states.shape[-1]
    return (np.reshape(ops, (-1, d, d)).transpose(0, 2, 1).reshape(-1, d * d) @ states.reshape(-1, d * d).T).real


def liouvillian_matrix(model: QsdeModel) -> np.ndarray:
    """Dense superoperator of the reduced master equation (row-major vec).

    Generates  d rho/dt = -i[H, rho] + L rho L† - (1/2){L†L, rho},  the
    trace-dual of the observable-flow drift; this is the oracle dynamics,
    deliberately distinct from the state-picture drift of
    :func:`qstab.models.state_generator`.
    """
    h, l, eye = model.hamiltonian, model.coupling, np.eye(model.dim)
    ldl = adjoint(l) @ l
    left, right = (lambda a: _kron(a, eye)), (lambda a: _kron(eye, a.T))  # vec(a rho) and vec(rho a)
    return -1j * (left(h) - right(h)) + _kron(l, l.conj()) - 0.5 * (left(ldl) + right(ldl))  # vec(L rho L†)


def master_evolve(model: QsdeModel, rho0: QuantumState, t_grid) -> np.ndarray:
    """Reduced states on ``t_grid`` as a ``(T, d, d)`` stack, stepped by one propagator per interval.

    ``P = expm(L h)`` steps each state to the next grid time and is kept while
    ``|t_k - (t_j + (k - j) h)| <= 4 ulp(t_k)`` from its anchor ``t_j``, a test evaluated on the grid as an
    array; otherwise ``h = t_k - t_(k-1)`` and ``P`` are taken afresh.  Every state thus sits within rounding
    of its grid time, with no drift over k, and a uniform grid costs one ``expm``.  Hermiticity, positivity and
    unit trace are checked once on the stack; a failure names its grid index and time.  The Liouvillian is not
    normal, so ``P`` comes from a general matrix exponential, :func:`qstab._expm.expm`, imported here so that
    processes that never run the oracle compile none of it.  A step so long that ``L h`` overflows gives a
    non-finite ``P`` and so an :class:`InvalidStateError`.

    State k is checked against the rounding bound ``b_k = 8 u sum_(j <= k) (d^2 + ||L h_j||_1)``, with u = 2^-52
    and h_j the step that made state j: unit trace within ``max(1e-12, b_k)``, Hermiticity and positivity within
    ``max(1e-10, b_k)``.  The exact ``P`` keeps the trace (1^T L = 0 for 1 = vec(I)), commutes with the adjoint
    and contracts the trace norm, so it passes the error of each earlier step on without growth: the errors of
    the steps add up.  One step errs by ``P``'s own error and the product's rounding.  The first grows with the
    ``2^s ~ ||L h||_1`` squarings of scaling and squaring, each of which doubles the error it is given; the
    second is bounded by u d^2 |P| |v|, from the length-d^2 inner products of the product.  Over 450 random
    models (d = 2-5, ||H||, ||L|| in [1e-2, 10^1.5]) and six grids up to ``[0, 1e3, 1e6]``, the trace error and
    the Hermiticity defect stayed below 0.53 u and 0.84 u of that sum, about a tenth of ``b_k``.
    """
    from ._expm import expm

    require_model_dim(model, **{"system state": rho0})
    t_grid = np.asarray(t_grid, dtype=float)
    bad_grid = t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all()
    if bad_grid or t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be a nonempty 1-D grid of finite times increasing strictly from 0")
    validate(model)
    liouville = liouvillian_matrix(model)
    norm1 = np.abs(liouville).sum(axis=0).max()  # ||L||_1, the largest column sum
    vecs = np.empty((t_grid.size, model.dim**2), dtype=complex)
    moves = np.zeros(t_grid.size)  # per state, the bound on its step's error, in units of 8 u
    vecs[0], k = rho0.rho.reshape(-1), 1
    while k < t_grid.size:  # P anchored at t_(k-1) serves t_k and the later times up to the first failing the test
        anchor, h, end, ok = k - 1, t_grid[k] - t_grid[k - 1], k + 1, True
        while ok and end < t_grid.size:  # windows that double the run: finding a run costs O(its length)
            ks = np.arange(end, min(2 * end - k + 8, t_grid.size))
            held = np.abs(t_grid[ks] - (t_grid[anchor] + (ks - anchor) * h)) <= 4 * np.spacing(t_grid[ks])
            ok = bool(held.all())
            end += ks.size if ok else int(np.argmin(held))
        with np.errstate(over="ignore"):
            step = expm(liouville * h)
            moves[k:end] = model.dim**2 + norm1 * h
        for i in range(k, end):
            step.dot(vecs[i - 1], out=vecs[i])
        k = end
    states = vecs.reshape(-1, model.dim, model.dim)
    bound = 8 * np.finfo(float).eps * np.cumsum(moves)
    tol = np.maximum(1e-10, bound)
    require_density(states, tol_herm=tol, tol_psd=tol, tol_trace=np.maximum(1e-12, bound), times=t_grid)
    return states


def master_flow_expectation(
    model: QsdeModel,
    candidate: LyapunovCandidate,
    x0: np.ndarray,
    system_state: QuantumState,
    t_grid,
    observables: dict | None = None,
) -> Trajectory:
    """Oracle trajectory of E[V(X_t)] from the reduced master equation.

    Because the flow is a homomorphism, a candidate whose coefficients are
    scalar multiples of the identity satisfies V(X_t) = f_t(V(x0)), so its
    expectation is Tr(rho_t V(x0)) with rho_t the reduced state.  Candidates
    with non-scalar coefficients interleave unflowed operators between
    flowed factors and are not reduced-state computable; they are rejected.
    A Theta counts as scalar within 1e-12 max(1, ||Theta||_F / sqrt(d)), a
    lower bound on 1e-12 max(1, ||Theta||_2) that equals it at theta I and
    takes no SVD.
    """
    require_model_dim(model, **{"system state": system_state}, candidate=candidate, x0=x0)
    cand = canonicalize(candidate)
    for n, m, theta in cand.terms:
        if not _is_scalar_matrix(theta, 1e-12 * max(1.0, _frobenius(theta) / np.sqrt(len(theta))))[0]:
            raise InvalidCandidateError(
                "the master oracle needs scalar term coefficients; "
                f"term ({n}, {m}) has a non-scalar Theta"
            )
    v0 = evaluate(cand, np.asarray(x0, dtype=complex))
    states = master_evolve(model, system_state, t_grid)
    observables = observables or {}
    v_vals, *obs_vals = _traces(states, [v0, *observables.values()])
    obs = dict(zip(observables, obs_vals)) or None
    return Trajectory(times=np.asarray(t_grid, dtype=float), v_expect=v_vals, method="master", obs_expect=obs)


@dataclass(frozen=True)
class DriftCheckReport:
    """One-step finite-difference validation of the analytic drift."""

    analytic: float
    empirical: float
    gap: float
    empirical_half: float
    gap_half: float
    ratio: float
    order_ok: bool


def finite_difference_drift_check(
    model: QsdeModel,
    candidate: LyapunovCandidate,
    x0: np.ndarray,
    system_state: QuantumState,
    config: CollisionConfig,
) -> DriftCheckReport:
    """Compare (E[V](dt) - E[V](0)) / dt against the analytic drift expectation.

    The noise contributions vanish in vacuum expectation, so the one-step
    slope must converge to Tr(rho0 drift(x0)) at first order in dt; the
    check reruns at dt/2 and requires the gap to shrink by a factor in
    [1.5, 2.5] (trivially satisfied when both gaps are below 1e-12).
    """
    require_model_dim(model, **{"system state": system_state}, candidate=candidate, x0=x0)
    if config.dt / 2 == 0.0:
        raise ValueError(f"dt must halve to a nonzero step, got {config.dt!r}")
    cand = canonicalize(candidate)
    [drift] = _ito_coefficients(model, cand, np.asarray(x0, dtype=complex), "flow", ("drift",))
    analytic = float(expectation(system_state, drift).real)

    def one_step_slope(dt):
        cfg = CollisionConfig(dt=dt, steps=1, ancilla_levels=config.ancilla_levels)
        traj = simulate_flow_expectation(model, cand, x0, system_state, cfg)
        with np.errstate(over="ignore"):
            slope = (traj.v_expect[1] - traj.v_expect[0]) / dt
        if not np.isfinite(slope):
            raise ValueError(f"dt must give a finite one-step slope, got {config.dt!r}")
        return slope

    empirical = float(one_step_slope(config.dt))
    empirical_half = float(one_step_slope(config.dt / 2))
    gap = abs(empirical - analytic)
    gap_half = abs(empirical_half - analytic)
    if gap <= 1e-12 and gap_half <= 1e-12:
        ratio = float("nan")
        order_ok = True
    else:
        ratio = gap / max(gap_half, np.finfo(float).tiny)
        order_ok = 1.5 <= ratio <= 2.5
    return DriftCheckReport(
        analytic=analytic,
        empirical=empirical,
        gap=gap,
        empirical_half=empirical_half,
        gap_half=gap_half,
        ratio=ratio,
        order_ok=order_ok,
    )


@dataclass(frozen=True)
class ItoTableEntry:
    left: str
    right: str
    maps_to: str
    moment: float
    expected: float
    deviation: float


@dataclass(frozen=True)
class ItoTableReport:
    dt: float
    ancilla_levels: int
    entries: tuple[ItoTableEntry, ...]

    @property
    def max_deviation(self) -> float:
        return max(e.deviation for e in self.entries)


# The increment of each part and coefficient name of the Ito routes that the dV assembly runs on.
_INCREMENTS = {
    "annihilation": "dA", "creation": "dA_dag", "gauge": "dLambda",
    "drift": "dt", "coeff_a": "dA", "coeff_adag": "dA_dag", "coeff_gauge": "dLambda",
}


def ito_table_check(ancilla_levels: int = 1, dt: float = 1e-3) -> ItoTableReport:
    """Vacuum moments of all 16 ordered increment products vs the table.

    With dA = a sqrt(dt), dA† = a† sqrt(dt), dLambda = a†a and dt = dt * I
    on one vacuum ancilla, every product's vacuum expectation is computed
    exactly in the truncated mode and compared with the expectation of the
    increment the multiplication table assigns: dt for dA dA†, zero for
    everything else mapping to a noise increment or to zero.  The purely
    deterministic pair dt*dt equals dt^2 identically and is compared with
    that exact value.  The table is read from the cross columns of the
    routes that assemble dV, every pair not listed there mapping to zero.
    All deviations are zero up to float rounding.
    """
    if ancilla_levels < 1:
        raise ValueError("ancilla_levels must be at least 1")
    require_positive(dt, "dt")
    if float(dt) * float(dt) == float("inf"):
        raise ValueError(f"dt must square to a finite number, got {dt!r}")
    a, a_dag, number = ladder_operators(ancilla_levels)
    eye = np.eye(ancilla_levels + 1)
    vac = vacuum_vector(ancilla_levels)
    table = {(_INCREMENTS[left], _INCREMENTS[right]): _INCREMENTS[c] for c, (*_, left, right) in _ITO_ROUTES.items()}
    increments = {
        "dA": np.sqrt(dt) * a,
        "dA_dag": np.sqrt(dt) * a_dag,
        "dLambda": number,
        "dt": dt * eye,
    }

    def vac_moment(op):
        return float(np.vdot(vac, op @ vac).real)

    entries = []
    for left in increments:
        for right in increments:
            moment = vac_moment(increments[left] @ increments[right])
            if left == "dt" and right == "dt":
                maps_to, expected = "dt*dt", dt * dt
            else:
                maps_to = table.get((left, right), "0")
                expected = vac_moment(increments[maps_to]) if maps_to in increments else 0.0
            entries.append(ItoTableEntry(left, right, maps_to, moment, expected, abs(moment - expected)))
    return ItoTableReport(dt=dt, ancilla_levels=ancilla_levels, entries=tuple(entries))


def exit_time_estimate(trajectory: Trajectory, epsilon: float) -> float | None:
    """First grid time with E[V] above epsilon, or None if it never leaves.

    This is an expectation-level surrogate for an operator-valued exit
    time: it watches the mean path, not the stopped process.
    """
    require_positive(epsilon, "epsilon")
    above = np.nonzero(trajectory.v_expect > epsilon)[0]
    if above.size == 0:
        return None
    return float(trajectory.times[above[0]])


@dataclass(frozen=True)
class TransitReport:
    applicable: bool
    measured: float | None
    bound: float | None
    entry_value: float | None
    ok: bool | None


def transit_time_check(trajectory: Trajectory, level_hi: float, level_lo: float, b: float) -> TransitReport:
    """Measured high-to-low level transit time against the bound E[V]/b.

    ``b`` is the user's uniform drift bound (drift <= -b I on the band);
    the mean transit from first crossing below ``level_hi`` to first
    crossing below ``level_lo`` must then be at most entry value / b.  A
    failure witnesses an invalid b for this trajectory, not a broken
    trajectory.  Not applicable when the path never crosses both levels.
    """
    if not level_hi > level_lo > 0:
        raise ValueError("levels must satisfy level_hi > level_lo > 0")
    require_positive(b, "b")
    v, t = trajectory.v_expect, trajectory.times
    hi_idx = np.nonzero(v <= level_hi)[0]
    if hi_idx.size == 0:
        return TransitReport(False, None, None, None, None)
    lo_idx = np.nonzero(v <= level_lo)[0]
    lo_idx = lo_idx[lo_idx >= hi_idx[0]]
    if lo_idx.size == 0:
        return TransitReport(False, None, None, None, None)
    entry = float(v[hi_idx[0]])
    measured = float(t[lo_idx[0]] - t[hi_idx[0]])
    bound = entry / b
    return TransitReport(True, measured, bound, entry, measured <= bound)


@dataclass(frozen=True)
class EnvelopeReport:
    ok: bool
    max_ratio: float
    allowance: float
    worst_time: float


def envelope_check(trajectory: Trajectory, a: float, v0: float) -> EnvelopeReport:
    """Does E[V](t) stay below v0 exp(-a t), up to declared slack?

    The multiplicative slack is 1e-6 plus a discretization allowance of
    1.0 * dt with dt read off the grid, reported alongside the worst ratio.
    """
    require_positive(a, "a")
    if not (np.isfinite(v0) and v0 >= 0):
        raise ValueError(f"v0 must be a finite nonnegative number, got {v0!r}")
    dt = float(np.min(np.diff(trajectory.times))) if trajectory.times.size > 1 else 0.0
    allowance = 1e-6 + dt
    envelope = v0 * np.exp(-a * trajectory.times)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(envelope > 0, trajectory.v_expect / envelope, np.inf)
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    return EnvelopeReport(
        ok=max_ratio <= 1.0 + allowance,
        max_ratio=max_ratio,
        allowance=allowance,
        worst_time=float(trajectory.times[worst]),
    )
