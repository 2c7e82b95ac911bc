"""Frontier measurement: stacked solves and stacked measurements.

A frontier (the configs one feedback round compares) is solved by one
stacked ``min_norm_weights`` call, a projection of the beam off the basis
of each config's nulls, where the search allows it, built into one
stacked weight matrix and measured for every user by one stacked
``sampled_inr`` call.
Every stacked result must carry the bits of the per-config calls it
replaces, and leave every random stream where they left it.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import clear_caches
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import degenerate_rows

from nullsim import beamforming, channel, coexsim, nullsearch
from nullsim.beamforming import (
    ArrayGeometry,
    DegenerateConstraintsError,
    build_weight_matrix,
    constraint_matrices,
    correction_gains,
    lcmv_weights,
    min_norm_weights,
    null_basis,
    steering_vector,
    steering_vectors,
)
from nullsim.campaign import export_results, run_scenarios
from nullsim.channel import (
    MIN_MEASURABLE_POWER,
    averaged_inr,
    channel_response,
    orbit_like_channel,
    rx_power,
    sampled_inr,
    two_ray_channel,
)
from nullsim.coexsim import run_full_protocol
from nullsim.nullsearch import DEFAULT_LINEAR_GRID, grid_tree, linear_search
from nullsim.phy_grid import N_RB, N_SC, SC_TO_RB
from nullsim.scenario import (
    Scenario,
    ScenarioError,
    SearchSpec,
    load_scenario,
    scenario_from_dict,
    with_overrides,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# the grating-lobe alias of a 60 deg beam with the default element spacing
ALIAS_OF_60 = -59.88976691395693


def _outcome(solve):
    """The weights a solve returns, or the class and message it raises."""
    try:
        return solve()
    except ValueError as exc:
        return type(exc), str(exc)


def _stacked_solve(geom, beam, null_sets):
    """``min_norm_weights`` on an (n, m) stack of null sets, as
    ``lcmv_weights`` builds its inputs: the beam's steering vector and the
    ``null_basis`` of the nulls' steering columns."""
    null_sets = np.asarray(null_sets, dtype=float).reshape(len(null_sets), -1)
    q, _ = null_basis(steering_vectors(geom, null_sets).transpose(0, 2, 1))
    return min_norm_weights(steering_vector(geom, beam)[None], q)


# ---------------------------------------------------------------------------
# stacked LCMV solve


@st.composite
def null_stacks(draw):
    """A geometry, a beam and an (n, m) stack of null sets that often fails.

    Angles come from a pool holding the beam itself, the grating-lobe
    aliases of +-60 deg, a near-coincident pair and an out-of-range value,
    mixed with free angles; m may be one more than the array allows.
    """
    k = draw(st.sampled_from([2, 3, 4, 8]))
    beam = draw(st.sampled_from([-60.0, 0.0, 21.4, 60.0]))
    m = draw(st.integers(min_value=0, max_value=k))
    n = draw(st.integers(min_value=1, max_value=5))
    pool = [beam, ALIAS_OF_60, -ALIAS_OF_60, -30.0, -30.0 + 1e-10, 95.0]
    angle = st.one_of(
        st.floats(min_value=-90.0, max_value=90.0), st.sampled_from(pool)
    )
    rows = draw(
        st.lists(
            st.lists(angle, min_size=m, max_size=m).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    return ArrayGeometry(k_antennas=k), beam, tuple(rows)


def _unchecked_outcome(geom, beam, row):
    """What a one-row solve raises before its rank test, in the solve's
    order: an angle out of range, a null on the beam, too many nulls."""
    for a in row:
        if not -90.0 <= a <= 90.0:
            return ValueError, f"angle {a} outside [-90, 90] degrees"
    for a in row:
        if a == beam:
            return (
                DegenerateConstraintsError,
                f"null at {a} deg coincides with the beam direction",
            )
    return ValueError, f"{len(row)} nulls plus one beam exceed {geom.k_antennas} antennas"


@settings(max_examples=200, deadline=None)
@given(null_stacks())
def test_stacked_solve_equals_single_solves(case):
    """The stacked check and solve give each row the outcome of its own call.

    Rows in range that fit the array are checked by one ``degenerate_rows``
    call and the rest solved by one stacked ``min_norm_weights`` call: each row's
    one-row ``lcmv_weights`` raises exactly the message ``degenerate_rows``
    gives for it, or returns the bits of its stacked row.
    """
    geom, beam, rows = case
    singles = [_outcome(lambda r=r: lcmv_weights(geom, beam, r)) for r in rows]
    fits = 1 + len(rows[0]) <= geom.k_antennas
    checked = [
        i for i, row in enumerate(rows) if fits and all(-90.0 <= a <= 90.0 for a in row)
    ]
    for i, row in enumerate(rows):
        if i not in checked:
            assert singles[i] == _unchecked_outcome(geom, beam, row)
    if not checked:
        return
    null_sets = np.array([rows[i] for i in checked]).reshape(len(checked), -1)
    failing = degenerate_rows(geom, beam, null_sets)
    solvable = [j for j in range(len(checked)) if j not in failing]
    stacked = _stacked_solve(geom, beam, null_sets[solvable]) if solvable else []
    for j, message in failing.items():
        assert singles[checked[j]] == (DegenerateConstraintsError, message)
    for j, w in zip(solvable, stacked):
        assert np.array_equal(singles[checked[j]], w)


@st.composite
def well_posed(draw):
    """A beam and null stack whose constraint matrices are far from rank loss."""
    k = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(min_value=0, max_value=k - 1))
    n = draw(st.integers(min_value=1, max_value=6))
    angles = st.floats(min_value=-85.0, max_value=85.0)
    beam = draw(angles)
    rows = draw(
        st.lists(
            st.lists(angles, min_size=m, max_size=m).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    return ArrayGeometry(k_antennas=k), beam, tuple(rows)


@settings(max_examples=150, deadline=None)
@given(well_posed())
def test_stacked_solve_meets_its_constraints_and_matches_lstsq(case):
    geom, beam, rows = case
    null_sets = np.array(rows).reshape(len(rows), -1)
    c = constraint_matrices(geom, beam, null_sets)
    sv = np.linalg.svd(c, compute_uv=False)
    keep = sv[:, -1] >= 1e-2 * sv[:, 0]
    if not keep.any():
        return
    w = _stacked_solve(geom, beam, null_sets[keep])
    e1 = np.zeros(c.shape[2])
    e1[0] = 1.0
    for ci, wi in zip(c[keep], w):
        assert np.max(np.abs(ci.conj().T @ wi - e1)) < 1e-12
        ref, *_ = np.linalg.lstsq(ci.conj().T, e1.astype(complex), rcond=None)
        assert np.max(np.abs(wi - ref)) < 1e-12


def test_degenerate_rows_name_each_failing_row():
    geom = ArrayGeometry(k_antennas=8)
    failing = degenerate_rows(geom, 60.0, [(10.0,), (60.0,), (ALIAS_OF_60,)])
    assert sorted(failing) == [1, 2]
    assert failing[1] == "null at 60.0 deg coincides with the beam direction"
    assert failing[2].startswith("constraint directions are rank deficient")


@st.composite
def screened_stacks(draw):
    """In-range null stacks on both sides of the rank tolerance.

    Besides free angles, a null may sit on the beam, on the grating-lobe
    aliases of +-60 deg, or 1e-9 to 1e-7 deg from the beam or from the
    row's previous null: coincident within the tolerance, or just outside.
    Half the stacks hold one null per row, as every scan grid and every
    tree leaf does.
    """
    k = draw(st.integers(min_value=2, max_value=16))
    m = draw(st.one_of(st.just(1), st.integers(min_value=0, max_value=k - 1)))
    n = draw(st.integers(min_value=1, max_value=6))
    beam = draw(
        st.one_of(
            st.sampled_from([-60.0, 0.0, 60.0]), st.floats(min_value=-89.0, max_value=89.0)
        )
    )
    offset = st.sampled_from([0.0, 1e-9, -1e-9, 1e-8, 1e-7])
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            kind = draw(st.sampled_from(["free", "beam", "alias", "previous"]))
            if kind == "free":
                a = draw(st.floats(min_value=-90.0, max_value=90.0))
            elif kind == "alias":
                a = draw(st.sampled_from([ALIAS_OF_60, -ALIAS_OF_60]))
            else:
                ref = row[-1] if kind == "previous" and row else beam
                a = min(90.0, max(-90.0, ref + draw(offset)))
            row.append(a)
        rows.append(tuple(row))
    return ArrayGeometry(k_antennas=k), beam, tuple(rows)


@settings(max_examples=200, deadline=None)
@given(screened_stacks())
def test_the_rank_test_keeps_every_rank_decision_and_message(case):
    """The stacked rank test and each row's ``lcmv_weights`` reject exactly
    the rows the SVD of every row rejects, with its messages."""
    geom, beam, rows = case
    null_sets = np.array(rows, dtype=float).reshape(len(rows), -1)
    expected = degenerate_rows(geom, beam, null_sets)
    c = constraint_matrices(geom, beam, null_sets)
    assert beamforming._degenerate(c, null_sets, beam) == expected
    for i, row in enumerate(rows):
        solved = _outcome(lambda: lcmv_weights(geom, beam, row))
        if i in expected:
            assert solved == (DegenerateConstraintsError, expected[i])
        else:
            assert solved.shape == (geom.k_antennas,)


def _svd_solve(c):
    """The reference solve: minimum-norm weights from one SVD per row."""
    u, s, vh = np.linalg.svd(c.conj().transpose(0, 2, 1), full_matrices=False)
    return (vh.conj() * (u[:, 0, :].conj() / s)[:, :, None]).sum(axis=1)


def _residuals(c, w):
    """max |c^H w - e1| of every row."""
    e1 = np.eye(c.shape[-1])[0]
    return np.abs(np.einsum("nkm,nk->nm", c.conj(), w) - e1).max(axis=-1)


def _check_kernel(geom, beam, rows):
    """The projection solve on the rows of a stack that ``lcmv_weights`` accepts.

    A row whose sigma ratio is r has a constraint residual of at most
    max(1e-12, 64 eps max|w|), the rounding floor of any solve with weights
    of that size, and lies within a relative 1e-14 / r of the SVD solve.
    On 6600 rows with r from 1e-9 to 1 they measured at most
    23 eps max|w| (the SVD solve's own residual reached 391 eps max|w|)
    and 1.2e-15 / r.  Each row has the bits of its own call, and those of
    ``lcmv_weights``.  Returns the rows' sigma ratios.
    """
    rows = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    rows = np.delete(rows, list(degenerate_rows(geom, beam, rows)), axis=0)
    if not len(rows):
        return np.empty(0)
    c = constraint_matrices(geom, beam, rows)
    w, ref = _stacked_solve(geom, beam, rows), _svd_solve(c)
    sv = np.linalg.svd(c, compute_uv=False)
    ratio = sv[:, -1] / sv[:, 0]
    rel = np.linalg.norm(w - ref, axis=1) / np.linalg.norm(ref, axis=1)
    floor = 64 * np.finfo(float).eps * np.abs(w).max(axis=-1)
    assert (_residuals(c, w) <= np.maximum(1e-12, floor)).all()
    assert (rel <= 1e-14 / ratio).all()
    for i, row in enumerate(rows):
        assert np.array_equal(_stacked_solve(geom, beam, row[None])[0], w[i])
        assert np.array_equal(lcmv_weights(geom, beam, row), w[i])
    return ratio


@settings(max_examples=200, deadline=None)
@given(screened_stacks())
def test_the_closed_form_solves_match_the_svd_solve(case):
    """The rows that once had closed forms keep their closed-form accuracy.

    A beam alone, or a beam and one null at a sigma ratio of at least 1e-3,
    match the SVD solve and meet their constraints to 1e-12 under the
    projection solve; every row of the stack is held to the bounds of
    ``_check_kernel``.
    """
    geom, beam, rows = case
    ratio = _check_kernel(geom, beam, rows)
    rows = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    rows = np.delete(rows, list(degenerate_rows(geom, beam, rows)), axis=0)
    rows = rows[ratio >= 1e-3]
    if not len(rows) or rows.shape[-1] > 1:
        return
    c = constraint_matrices(geom, beam, rows)
    w, ref = _stacked_solve(geom, beam, rows), _svd_solve(c)
    rel = np.linalg.norm(w - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert (rel <= 1e-12).all()
    assert (_residuals(c, w) <= 1e-12).all()


@st.composite
def near_rank_loss(draw):
    """A beam and a stack of null sets whose sigma ratios span 1e-9 to 1.

    K is 2 to 16 and m any null count from 0 to K - 1.  Besides free
    angles, a null may sit a log-uniform 1e-10 to 10 deg from the beam,
    from the beam's grating-lobe alias or from the row's previous null, so
    rows fall on every decade from the rank tolerance up.
    """
    k = draw(st.integers(min_value=2, max_value=16))
    geom = ArrayGeometry(k_antennas=k)
    m = draw(st.integers(min_value=0, max_value=k - 1))
    n = draw(st.integers(min_value=1, max_value=6))
    beam = draw(st.floats(min_value=-80.0, max_value=80.0))
    sine = np.sin(np.radians(beam))
    aliases = [
        float(np.degrees(np.arcsin(sine + sign / geom.spacing_wavelengths)))
        for sign in (-1.0, 1.0)
        if abs(sine + sign / geom.spacing_wavelengths) <= 1.0
    ]
    offset = st.builds(
        lambda e, sign: sign * 10.0**e,
        st.floats(min_value=-10.0, max_value=1.0),
        st.sampled_from([-1.0, 1.0]),
    )
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            kind = draw(st.sampled_from(["free", "beam", "alias", "previous"]))
            if kind == "free":
                a = draw(st.floats(min_value=-90.0, max_value=90.0))
            else:
                refs = {"beam": [beam], "alias": aliases or [beam], "previous": row or [beam]}
                a = draw(st.sampled_from(refs[kind])) + draw(offset)
            row.append(min(90.0, max(-90.0, a)))
        rows.append(tuple(row))
    return geom, beam, tuple(rows)


@settings(max_examples=200, deadline=None)
@given(near_rank_loss())
def test_the_projection_solve_meets_its_constraints_and_matches_the_svd_solve(case):
    _check_kernel(*case)


@st.composite
def grid_beams(draw):
    """An array size and a beam for the default scan grid.

    The beam is free, or within 1e-9 to 1e-2 deg of the grating-lobe alias
    of a grid angle, which puts that row on either side of the rank
    tolerance and of the 1e-3 sigma ratio the projection screen clears.
    """
    k = draw(st.sampled_from([2, 4, 8, 16, 64]))
    geom = ArrayGeometry(k_antennas=k)
    beam = draw(st.floats(min_value=-89.0, max_value=89.0))
    if draw(st.booleans()):
        null = draw(st.sampled_from(DEFAULT_LINEAR_GRID))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        sine = np.sin(np.radians(null)) + sign / geom.spacing_wavelengths
        if abs(sine) <= 1.0:
            offset = draw(st.sampled_from([0.0, 1e-9, -1e-8, 1e-7, -1e-5, 1e-3, -1e-2]))
            beam = min(90.0, max(-90.0, float(np.degrees(np.arcsin(sine))) + offset))
    return geom, beam


@settings(max_examples=60, deadline=None)
@given(grid_beams())
def test_the_default_grid_solve_matches_the_svd_solve(case):
    geom, beam = case
    _check_kernel(geom, beam, [(g,) for g in DEFAULT_LINEAR_GRID])


def test_a_near_alias_row_is_solved_within_the_svd_bounds():
    # sigma ratio 2e-9: the rank test accepts it, but its Gram determinant
    # is rounding noise, so only an SVD decides it; the projection solves it
    geom, beam = ArrayGeometry(k_antennas=4), 59.88976702816812
    assert degenerate_rows(geom, beam, [(-60.0,)]) == {}
    (ratio,) = _check_kernel(geom, beam, [(-60.0,)])
    assert ratio < 1e-8
    _check_kernel(geom, beam, [(g,) for g in DEFAULT_LINEAR_GRID])


def test_linear_run_solves_the_beam_and_the_grid_once_each(monkeypatch):
    calls = []

    def counted(a, q):
        calls.append(q.shape)
        return min_norm_weights(a, q)

    for module in (beamforming, nullsearch):
        monkeypatch.setattr(module, "min_norm_weights", counted)
    s = Scenario()
    result = run_full_protocol(replace(s, search=replace(s.search, mode="linear")))
    assert len(result.users[0].trace) == len(DEFAULT_LINEAR_GRID)
    # the beam alone, then every grid angle as one null: (rows, K, nulls)
    k = s.geometry.k_antennas
    assert calls == [(1, k, 0), (len(DEFAULT_LINEAR_GRID), k, 1)]


# ---------------------------------------------------------------------------
# stacked weight matrices and measurements


def rx_power_reference(h, wm, tx_power):
    """Received power with the antenna sum written out, antenna by antenna."""
    cols = np.asarray(wm)[:, SC_TO_RB]
    summed = cols[0] * h[0]
    for k in range(1, len(h)):
        summed = summed + cols[k] * h[k]
    return tx_power * np.abs(summed) ** 2


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8]),
    corrected=st.booleans(),
    jitter=st.sampled_from([0.0, 0.5]),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_frontier_measurement_matches_per_config_calls(k, corrected, jitter, n, seed):
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(k_antennas=k)
    weights = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    report = correction_gains(rng.exponential(size=(k, 64))) if corrected else None
    model = orbit_like_channel(rng, k) if seed % 2 else two_ray_channel(10.0)
    h = channel_response(model, geom)

    stack = build_weight_matrix(geom, 0.0, ((),) * n, report=report, base=weights)
    singles = [build_weight_matrix(geom, 0.0, (), report=report, base=w) for w in weights]
    assert stack.shape == (n, k, N_RB)
    assert np.array_equal(stack, np.array(singles))

    power = rx_power(h, stack, 2.0)
    for row, wm in zip(power, singles):
        assert np.array_equal(row, rx_power(h, wm, 2.0))
        # a materialized copy takes the per-subcarrier gather
        assert np.array_equal(row, rx_power(h, np.array(wm), 2.0))
        assert np.array_equal(row, rx_power_reference(h, wm, 2.0))

    rng_stack, rng_single = np.random.default_rng(seed), np.random.default_rng(seed)
    (inrs,) = sampled_inr(h[None], stack, [1e-9], 2.0, 50, jitter, [rng_stack])
    for inr, wm in zip(inrs, singles):
        ((one,),) = sampled_inr(h[None], wm[None], [1e-9], 2.0, 50, jitter, [rng_single])
        assert inr == one
    assert rng_stack.random() == rng_single.random()


def per_user_measurement(h, stack, noise, tx_power, count, jitter, rng):
    """One user's reports as a measurement of that user alone makes them:
    per config, the mean subcarrier power plus noise, then ``count`` draws
    from the user's own rng, config by config."""
    reports = []
    for wm in stack:
        p_on = float(np.mean(rx_power_reference(h, wm, tx_power))) + noise
        if jitter == 0.0:
            reports.append(p_on / noise)
            continue
        draws = p_on + jitter * noise * rng.standard_normal(count)
        np.clip(draws, MIN_MEASURABLE_POWER, None, out=draws)
        reports.append(float(np.mean(draws / noise)))
    return reports


@settings(max_examples=60, deadline=None)
@given(
    users=st.integers(min_value=1, max_value=4),
    k=st.sampled_from([2, 4, 8]),
    corrected=st.booleans(),
    jitter=st.sampled_from([0.0, 0.5]),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_measurement_of_every_user_matches_per_user_measurements(
    users, k, corrected, jitter, n, seed
):
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(k_antennas=k)
    weights = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    report = correction_gains(rng.exponential(size=(k, 64))) if corrected else None
    stack = build_weight_matrix(geom, 0.0, ((),) * n, report=report, base=weights)
    assert (stack.strides[-1] == 0) == (not corrected)
    # every user its own channel and its own calibrated noise power
    models, noise = [], []
    for u in range(users):
        models.append(
            orbit_like_channel(rng, k, float(rng.uniform(-80.0, 80.0)))
            if u % 2 else two_ray_channel(float(rng.uniform(-60.0, 60.0)))
        )
        noise.append(float(10.0 ** rng.uniform(-3.0, 1.0)))
    responses = np.array([channel_response(m, geom) for m in models])
    rngs = [np.random.default_rng([seed, u]) for u in range(users)]
    oracle_rngs = [np.random.default_rng([seed, u]) for u in range(users)]

    measured = sampled_inr(responses, stack, noise, 2.0, 50, jitter, rngs)
    assert len(measured) == users
    for u in range(users):
        expected = per_user_measurement(
            responses[u], stack, noise[u], 2.0, 50, jitter, oracle_rngs[u]
        )
        assert measured[u] == expected
        assert rngs[u].bit_generator.state == oracle_rngs[u].bit_generator.state


def test_plain_matrix_is_a_read_only_broadcast(geom4):
    m = build_weight_matrix(geom4, 12.0, (-40.0,), base=lcmv_weights(geom4, 12.0, (-40.0,)))
    assert m.strides[-1] == 0
    assert not m.flags.writeable


@settings(max_examples=40, deadline=None)
@given(
    users=st.integers(min_value=1, max_value=4),
    k=st.sampled_from([2, 4, 8]),
    jitter=st.sampled_from([0.0, 0.5, 4.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_baseline_on_calibration_powers_is_the_stacked_measurement(users, k, jitter, seed):
    """The no-null beam's powers that calibration averages give every
    user's baseline the bits, and leave every rng in the state, of a
    measurement of the beam's stack of one."""
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(k_antennas=k)
    beam = float(rng.uniform(-60.0, 60.0))
    w0 = build_weight_matrix(geom, beam, ((),), base=lcmv_weights(geom, beam, ())[None])
    responses = np.array(
        [channel_response(two_ray_channel(float(rng.uniform(-60.0, 60.0))), geom)
         for _ in range(users)]
    )
    noise = [float(10.0 ** rng.uniform(-3.0, 1.0)) for _ in range(users)]
    rngs, stack_rngs = (
        [np.random.default_rng([seed, u]) for u in range(users)] if jitter else None
        for _ in range(2)
    )
    power = np.mean(rx_power(responses, w0[0], 2.0), axis=-1)
    reused = averaged_inr(power[:, None], noise, 50, jitter, rngs)
    measured = sampled_inr(responses, w0, noise, 2.0, 50, jitter, stack_rngs)
    assert np.array(reused).tobytes() == np.array(measured).tobytes()
    for a, b in zip(rngs or (), stack_rngs or ()):
        assert a.bit_generator.state == b.bit_generator.state


# ---------------------------------------------------------------------------
# one evaluator call per frontier


def test_linear_search_measures_its_grid_as_one_frontier(geom8):
    frontiers = []

    def distance_to_victim(cfgs, w):
        frontiers.append(w.shape)
        return [[abs(cfg.null_angles_deg[0] + 20.0) for cfg in cfgs]]

    state = linear_search(grid_tree(geom8, DEFAULT_LINEAR_GRID, 21.4), distance_to_victim)
    assert frontiers == [(165, 8)]
    assert state.best[0].null_angles_deg == (-20.0,)
    assert len(state.tested) == 165


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_tree_run_measures_one_frontier_per_level(monkeypatch):
    baselines = _count_calls(monkeypatch, coexsim, "averaged_inr")
    measured = _count_calls(monkeypatch, coexsim, "sampled_inr")
    result = run_full_protocol(Scenario())
    # the no-null baseline, on calibration's powers, then one stacked
    # measurement per level
    assert [np.shape(a[0]) for a in baselines] == [(1, 1)]
    assert len(measured) == Scenario().search.depth
    assert [np.ndim(a[1]) for a in measured] == [3] * len(measured)
    assert len(result.users[0].trace) == sum(np.shape(a[1])[0] for a in measured)


def test_multi_user_run_measures_each_user_once_per_level(monkeypatch):
    s = load_scenario(str(SCENARIOS / "multiuser_four.json"))
    baselines = _count_calls(monkeypatch, coexsim, "averaged_inr")
    measured = _count_calls(monkeypatch, coexsim, "sampled_inr")
    result = run_full_protocol(s)
    users = len(s.user_angles_deg)
    levels = len(result.timeline.level_cycles)
    # one measurement of every user each: the baselines (on calibration's
    # powers), the union frontier of each level, the joint config
    assert [(np.shape(a[0]), len(a[1])) for a in baselines] == [((users, 1), users)]
    assert len(measured) == levels + 1
    k = s.geometry.k_antennas
    assert [np.shape(a[0]) for a in measured] == [(users, k, N_SC)] * len(measured)
    assert [len(a[2]) for a in measured] == [users] * len(measured)
    # each level's measurement holds every config its test slots sent
    assert sum(np.shape(a[1])[0] for a in measured[:-1]) == result.timeline.count(
        "test_slot"
    )


@pytest.mark.parametrize(
    "scenario",
    [Scenario(), load_scenario(str(SCENARIOS / "multiuser_four.json"))],
    ids=["tree-corrected", "multiuser"],
)
def test_each_user_channel_response_is_computed_once(scenario, monkeypatch):
    assert scenario.search.mode == "multiuser" or scenario.search.power_correction
    clear_caches()
    # a call through the channel module's own name counts too
    responses = _count_calls(monkeypatch, coexsim, "channel_response")
    via_channel = _count_calls(monkeypatch, channel, "channel_response")
    first = run_full_protocol(scenario)
    assert len(responses) + len(via_channel) == len(scenario.user_angles_deg)
    # an identical run shares the first one's calibration
    responses.clear()
    via_channel.clear()
    again = run_full_protocol(scenario)
    assert len(responses) + len(via_channel) == 0
    assert again.users == first.users


@pytest.mark.parametrize(
    "scenario, reports",
    [
        (Scenario(), 1),
        (Scenario(search=SearchSpec(power_correction=False)), 0),
        (Scenario(search=SearchSpec(mode="linear")), 0),
        (load_scenario(str(SCENARIOS / "multiuser_four.json")), 0),
    ],
    ids=["tree-corrected", "tree-uncorrected", "linear", "multiuser"],
)
def test_only_a_power_corrected_tree_run_takes_a_power_report(scenario, reports, monkeypatch):
    taken = _count_calls(monkeypatch, coexsim, "power_report")
    run_full_protocol(scenario)
    assert len(taken) == reports


# ---------------------------------------------------------------------------
# validation accepts only scan grids the run can solve


@settings(max_examples=40, deadline=None)
@given(
    beam=st.sampled_from([-60.0, 0.0, 21.4, 60.0]),
    grid=st.lists(
        st.one_of(
            st.floats(min_value=-90.0, max_value=90.0),
            st.sampled_from([ALIAS_OF_60, -ALIAS_OF_60]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_a_valid_linear_scenario_never_degenerates(beam, grid):
    raw = {
        "ue_angle_deg": beam,
        "geometry": {"k_antennas": 8},
        "search": {"mode": "linear", "linear_grid": grid},
    }
    try:
        s = scenario_from_dict(raw)
    except ScenarioError as exc:
        assert exc.rule == "beam_on_candidate_null"
        geom = ArrayGeometry(k_antennas=8)
        solved = [_outcome(lambda g=g: lcmv_weights(geom, beam, [g])) for g in grid]
        assert any(
            isinstance(o, tuple) and o[0] is DegenerateConstraintsError for o in solved
        )
        return
    run_full_protocol(s)


# ---------------------------------------------------------------------------
# jittered goldens

# sha256 of the JSON export of jittered runs (noise_jitter 0.5), which the
# jitter-free repro goldens leave unpinned: the linear scan and the
# multi-user union draw a whole frontier's noise from one rng call.  Taken
# before frontiers were measured in one pass (Python 3.11, numpy 2.4,
# x86-64); a change that keeps the outputs keeps these digests.
JITTERED_JSON_SHA256 = {
    ("orbit_k4.json", "linear"):
        "c6247709212c7daa4de4439134c5f36cc22633b5c9ee221146c6cd717087be5c",
    ("orbit_k4.json", None):
        "f02a5c58501840a95a8e866b733fbdb821271e6facf78fb48137911e61b21b7f",
    ("multiuser_four.json", None):
        "810e8e19bd96af5f2b69ac03f4a23d453259e869d1cc5d80ae0e8ae691e72866",
}


@pytest.mark.parametrize("name,mode", sorted(JITTERED_JSON_SHA256, key=str))
def test_jittered_export_matches_its_golden_digest(name, mode, tmp_path):
    s = load_scenario(str(SCENARIOS / name))
    s = with_overrides(s, sim=replace(s.sim, noise_jitter=0.5))
    if mode is not None:
        s = replace(s, search=replace(s.search, mode=mode))
    records = run_scenarios([s])
    (path,) = export_results(records, "json", str(tmp_path / "out.json"))
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert digest == JITTERED_JSON_SHA256[(name, mode)]
