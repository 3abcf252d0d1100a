"""Batched water-filling: the P3 inner solve over a *matrix* of candidates.

Every iterative engine (GSD, coordinate descent, brute force) scores
candidate level vectors one at a time through
:func:`~repro.solvers.load_distribution.distribute_load`, and on fleets of
a few hundred groups the per-group formulation of that solve is pure
Python overhead: each ν-bisection step is ~10 numpy calls on (G,) arrays,
each call microseconds of setup around nanoseconds of arithmetic.  The
shipped scalar solver removes that overhead by solving over (profile,
level) classes instead of groups; this module, the batched engine
coordinate descent and brute force score their sweeps with, keeps the
per-group formulation and amortizes its dispatch over many candidates.

This module runs the whole pipeline -- on-set compaction, feasibility
check, ν-bisection, regime classification (billed/free/boundary), μ-
bisection, residual closure, and the objective evaluation -- as array ops
over a ``(K, G)`` batch: one vectorized bisection advances K brackets in
lockstep instead of K scalar solves.  The same ~10 numpy calls per
bisection step now serve every candidate at once.

Exactness contract
------------------
Against the shipped :func:`distribute_load`, every row has the same
feasibility and regime and a P3 objective within 1e-9 relative error.
Against the *group-level* cold solve -- the historical scalar path, kept
as the test oracle ``tests/waterfill_oracle.py`` and called "the scalar
path" below -- the cold batched path is **bit-identical per candidate**
(both pinned by ``tests/test_batched_engine.py``).  Three structural rules
make that possible:

- **Partition by on-count.**  The scalar solver compacts arrays to the
  on-set before summing; summing a full-length row with zeros interleaved
  changes numpy's pairwise-summation grouping and therefore the bits.
  But the pairwise blocking depends only on the *length* of the reduced
  axis, not on which columns were gathered -- so rows whose on-sets merely
  have the same size can share a partition.  Each row carries its own
  column-index vector (ascending, as ``np.nonzero`` yields, matching the
  scalar compaction order); within a partition ``np.sum(A, axis=1)`` on
  the C-contiguous gathered block reduces each row with the same pairwise
  blocking as the scalar 1-D sum.  This is what keeps a GSD speculation
  block (the base configuration's flips, whose on-masks all differ) in
  one or two partitions instead of one per row.
- **Preserve elementwise op order.**  Every scalar expression is
  replicated with the same association (``we * pue * c`` becomes
  ``(we_vec * pue)[:, None] * c``, never ``we_vec[:, None] * (pue * c)``).
- **Lockstep brackets with per-row masks.**  Each bisection step computes
  the midpoint for all rows and applies bracket updates only to rows that
  have not collapsed yet, reproducing the scalar per-candidate bracket
  trace (and the ``inner_iters`` diagnostics) exactly.

Warm-started batches (a shared ``hint``) carry the warm contract: <= 1e-9
relative objective error against the cold solve.  Warm rows run the same
safeguarded regula falsi (Illinois) refinement as
:func:`distribute_load`'s warm path, in lockstep.

Rows whose configuration cannot serve the load come back as ``None`` --
the batch analogue of :class:`InfeasibleError`.  Degenerate instances the
vectorization does not cover (``Wd == 0``'s greedy fill, non-linear
tariffs' per-row fixed point) fall back to :func:`distribute_load` row by
row, so the API is total and the rows are the shipped solver's there.
"""

from __future__ import annotations

import numpy as np

from ..cluster.power import LinearTariff, Tariff
from ..cluster.queueing import MG1PSDelay
from . import load_distribution as ld
from .load_distribution import LoadDistribution, distribute_load
from .problem import InfeasibleError, SlotProblem

__all__ = ["distribute_load_batch", "objective_batch", "tariff_cost_batch"]


def tariff_cost_batch(
    tariff: Tariff, brown: np.ndarray, price: float
) -> np.ndarray:
    """Tariff cost over an array of brown-energy draws.

    ``LinearTariff`` (the common case) is one multiply, bit-identical to
    the scalar ``cost`` per element; other tariffs fall back to elementwise
    scalar calls (their ``cost`` is scalar Python), skipping non-finite
    entries.  Shared by the batched evaluator and the homogeneous
    enumeration engine's candidate grid.
    """
    brown = np.asarray(brown, dtype=np.float64)
    if isinstance(tariff, LinearTariff):
        # Candidate grids carry inf/nan placeholders (infeasible rows);
        # 0 * inf raises "invalid value" without changing any entry.
        with np.errstate(invalid="ignore"):
            return price * brown
    out = np.full(brown.shape, np.inf)
    finite = np.isfinite(brown)
    flat = brown[finite]
    out[finite] = [tariff.cost(float(b), price) for b in flat]
    return out


# ---------------------------------------------------------------------------
# Batched water-filling over one on-count partition
# ---------------------------------------------------------------------------
#: ``np.sum(a, axis=1)`` delegates to ``np.add.reduce`` after a dispatch
#: wrapper that costs several microseconds per call -- real money at this
#: module's call rates.  Calling the ufunc method directly is bit-identical
#: (same pairwise reduction); likewise ``logical_and/or.reduce`` for
#: ``np.all``/``np.any``.
_rowsum = np.add.reduce
_rowall = np.logical_and.reduce
_rowany = np.logical_or.reduce


def _take(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(arr, idx, axis=1)`` without the index-grid
    wrapper: one fancy gather, identical element selection."""
    return arr[np.arange(idx.shape[0])[:, None], idx]


def _close_residual_rows(
    lam: float, loads: np.ndarray, caps: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """Row-wise residual closure: force each row's ``sum(n * loads) == lam``.

    The overwhelmingly common case -- every group strictly interior, one
    uniform correction, nothing clips -- is one vectorized pass: with an
    all-true interior mask the scalar's boolean gather is the full
    contiguous row, so the sums share pairwise blocking and the fast rows
    are bit-identical.  Rows whose interior mask compacts (some load sits
    exactly on its cap or floor after the water-fill's clip) but where the
    correction still lands inside every interior box take a second
    vectorized tier: grouped by interior *count*, a per-row gather of
    equal-length interior sets reduces with the same pairwise blocking as
    the scalar boolean gather, so these rows are bit-identical too.  Only
    rows where the clip actually binds -- the redistribution loop -- fall
    back to the scalar routine.
    """
    res = lam - _rowsum(n * loads, axis=1)
    int_strict = (loads > 0.0) & (loads < caps)
    int_below = loads < caps
    neg = res < 0.0
    all_int = np.where(neg, _rowall(int_strict, axis=1), _rowall(int_below, axis=1))
    weight = _rowsum(n, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        proposed = loads + (res / weight)[:, None]
    clipped = np.minimum(np.maximum(proposed, 0.0), caps)
    fast = all_int & (weight > 0.0) & ~_rowany(clipped != proposed, axis=1)
    out = np.where(fast[:, None], clipped, loads)
    slow = np.nonzero(~fast)[0]
    if slow.size == 0:
        return out

    interior = np.where(neg[slow, None], int_strict[slow], int_below[slow])
    icount = interior.sum(axis=1)
    groups: dict[int, list[int]] = {}
    for j in range(slow.size):
        groups.setdefault(int(icount[j]), []).append(j)
    for cnt, members in groups.items():
        if cnt == 0:
            continue  # weight <= 0: the scalar loop breaks, loads unchanged
        sub = np.asarray(members)
        rows = slow[sub]
        icols = np.nonzero(interior[sub])[1].reshape(sub.size, cnt)
        n_i = _take(n[rows], icols)
        w_i = _rowsum(n_i, axis=1)
        l_i = _take(loads[rows], icols)
        cap_i = _take(caps[rows], icols)
        with np.errstate(divide="ignore", invalid="ignore"):
            prop = l_i + (res[rows] / w_i)[:, None]
        clip_i = np.minimum(np.maximum(prop, 0.0), cap_i)
        done = (w_i > 0.0) & ~_rowany(clip_i != prop, axis=1)
        d_loc = np.nonzero(done)[0]
        if d_loc.size:
            filled = out[rows[d_loc]]
            np.put_along_axis(filled, icols[d_loc], clip_i[d_loc], axis=1)
            out[rows[d_loc]] = filled
        for j in np.nonzero(~done)[0]:
            k = rows[j]
            out[k] = _close_residual_row(lam, loads[k], caps[k], n[k])
    return out


def _close_residual_row(
    lam: float, loads: np.ndarray, caps: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """One row's residual closure when clipping binds: after the uniform
    correction saturates some interior group, redistribute the clipped
    mass over the still-interior set until the balance closes (each pass
    saturates at least one group, so the loop is bounded by the group
    count)."""
    residual = lam - float(np.sum(n * loads))
    for _ in range(loads.size + 1):
        interior = (loads > 0.0) & (loads < caps) if residual < 0 else (loads < caps)
        weight = float(np.sum(n[interior]))
        if weight <= 0.0:
            break
        proposed = loads[interior] + residual / weight
        clipped = np.clip(proposed, 0.0, caps[interior])
        loads = loads.copy()
        loads[interior] = clipped
        if not np.any(clipped != proposed):
            break
        residual = lam - float(np.sum(n * loads))
    return loads


def _waterfill_rows(
    problem: SlotProblem,
    lam: float,
    we: np.ndarray,
    x: np.ndarray,
    c: np.ndarray,
    n: np.ndarray,
    nu_hint: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`load_distribution._waterfill` over B rows.

    ``we`` is per-row; ``x``/``c``/``n`` are per-row ``(B, Gon)`` gathers
    of the speed, dynamic-power, and server-count columns of each row's
    own on-set; ``nu_hint`` is a per-row dual hint (NaN = no hint).
    Returns ``(loads, nu, iters, warm, dead)`` where ``dead`` marks rows
    whose doubling bracket diverged (the scalar path's
    :class:`InfeasibleError`).  Requires ``Wd > 0`` (callers route the
    delay-free degenerate case through the scalar fill).

    Cold rows run the scalar lockstep bisection; warm-validated rows run
    the scalar warm path's Illinois refinement, both with per-row
    arithmetic identical to :func:`load_distribution._waterfill`.  Each
    phase gathers its rows' sub-arrays once and then runs a dense masked
    loop over the subset -- per-row values are unchanged either way, so
    any subset evaluates bit-identically.  For the M/G/1/PS delay model
    (the common case) the served-load evaluation inlines
    ``clip(x - sqrt(x/m), 0, x)`` -- the exact expression
    :meth:`MG1PSDelay.load_at_marginal` computes -- skipping its asarray
    and ufunc-wrapper overhead without changing a bit.
    """
    dm = problem.delay_model
    wd = problem.V * problem.delay_weight
    pue = problem.pue
    caps = problem.gamma * x
    elec = (we * pue)[:, None] * c  # scalar path: (we * pue) * c

    B = x.shape[0]
    mg1ps = isinstance(dm, MG1PSDelay)

    def make_served(rows):
        e_s, x_s, caps_s, n_s = elec[rows], x[rows], caps[rows], n[rows]

        def loads_at(nu: np.ndarray) -> np.ndarray:
            m = (nu[:, None] - e_s) / wd
            ms = np.maximum(m, 1e-300)
            if mg1ps:
                v = x_s - np.sqrt(x_s / ms)
                v = np.minimum(np.maximum(v, 0.0), x_s)
            else:
                v = dm.load_at_marginal(ms, x_s)
            lam_g = np.where(m > 0, v, 0.0)
            return np.minimum(np.maximum(lam_g, 0.0), caps_s)

        def srv(nu: np.ndarray) -> np.ndarray:
            return _rowsum(n_s * loads_at(nu), axis=1)

        return loads_at, srv

    if mg1ps:
        # Inline MG1PSDelay.marginal -- where(load < speed,
        # speed / (speed - load)**2, inf) -- with the same literal
        # expressions, skipping the asarray/errstate wrapper.
        with np.errstate(divide="ignore", invalid="ignore"):
            m0 = np.where(0.0 < x, x / (x - 0.0) ** 2, np.inf)
            mc = np.where(caps < x, x / (x - caps) ** 2, np.inf)
    else:
        m0 = dm.marginal(np.zeros_like(x), x)
        mc = dm.marginal(caps, x)
    lo = np.min(elec + wd * m0, axis=1)
    hi = np.maximum(lo, np.max(elec + wd * mc, axis=1)) + 1.0
    dead = np.zeros(B, dtype=bool)
    warm = np.zeros(B, dtype=bool)
    f_lo = np.zeros(B)
    f_hi = np.zeros(B)

    # Warm validation before the doubling probe (mirrors the scalar order:
    # doubling only raises ``hi``, so a hint bracket under the initial
    # ``hi`` validates identically either way, and a validated bracket
    # proves the probe would not have fired).  In the hot path -- every
    # row warm -- the probe evaluation is skipped entirely.
    if nu_hint is not None:
        hint_ok = np.isfinite(nu_hint)
        w = ld._WARM_RTOL_WIDE * np.maximum(np.abs(nu_hint), 1e-300)
        wlo = np.maximum(lo, nu_hint - w)
        whi = nu_hint + w
        early = hint_ok & (wlo < whi) & (whi <= hi)
        e_rows = np.nonzero(early)[0]
        if e_rows.size:
            _, srv_e = make_served(e_rows)
            s_lo = srv_e(wlo[e_rows])
            s_hi = srv_e(whi[e_rows])
            ok = (s_lo < lam) & (lam <= s_hi)
            okr = e_rows[ok]
            lo[okr] = wlo[okr]
            hi[okr] = whi[okr]
            f_lo[okr] = s_lo[ok] - lam
            f_hi[okr] = s_hi[ok] - lam
            warm[okr] = True

    pending = np.nonzero(~warm)[0]
    if pending.size:
        _, srv_p = make_served(pending)
        need = pending[srv_p(hi[pending]) < lam]
        while need.size:
            hi[need] = 2.0 * hi[need] + 1.0
            died = hi[need] > 1e300
            dead[need[died]] = True
            need = need[~died]
            if need.size:
                _, srv_n = make_served(need)
                need = need[srv_n(hi[need]) < lam]
        # Hint rows whose wide bracket poked above the initial ``hi`` had
        # to wait for the doubled bracket (rows that *tried* the early
        # window and failed would fail again -- their clamps are
        # unchanged -- so they go straight to the cold bisection).
        if nu_hint is not None:
            late = np.nonzero(hint_ok & ~early & ~dead & ~warm)[0]
            if late.size:
                whi2 = np.minimum(hi[late], whi[late])
                v_ok = wlo[late] < whi2
                vrows = late[v_ok]
                if vrows.size:
                    _, srv_v = make_served(vrows)
                    s_lo = srv_v(wlo[vrows])
                    s_hi = srv_v(whi2[v_ok])
                    ok = (s_lo < lam) & (lam <= s_hi)
                    okr = vrows[ok]
                    lo[okr] = wlo[okr]
                    hi[okr] = whi2[v_ok][ok]
                    f_lo[okr] = s_lo[ok] - lam
                    f_hi[okr] = s_hi[ok] - lam
                    warm[okr] = True

    iters = np.zeros(B, dtype=np.int64)

    # Cold rows: the scalar cold path's lockstep bisection (bit-identical).
    crows = np.nonzero(~dead & ~warm)[0]
    if crows.size:
        _, srv = make_served(crows)
        lo_s, hi_s = lo[crows], hi[crows]
        it_s = np.zeros(crows.size, dtype=np.int64)
        act = np.ones(crows.size, dtype=bool)
        for _ in range(ld._NU_ITERS):
            mid = 0.5 * (lo_s + hi_s)
            collapsed = (mid == lo_s) | (mid == hi_s)
            cross = srv(mid) < lam
            upd_lo = act & cross
            upd_hi = act ^ upd_lo
            lo_s = np.where(upd_lo, mid, lo_s)
            hi_s = np.where(upd_hi, mid, hi_s)
            it_s += act
            if ld._EARLY_EXIT:
                act &= ~collapsed
                if not act.any():
                    break
        lo[crows], hi[crows] = lo_s, hi_s
        iters[crows] = it_s

    # Warm rows: the scalar warm path's Illinois refinement in lockstep
    # (the secant, safeguard, halving, and ``_WARM_XTOL`` stop match the
    # scalar code per element, so warm batched rows equal warm scalar
    # solves bit for bit).  ``f_hi - f_lo > 0`` always (the signs are
    # strict invariants), but a collapsing ``f`` can overflow the secant
    # quotient; the safeguard then takes the midpoint, and errstate keeps
    # the spurious warning quiet (the scalar path works in Python floats,
    # which never warn).
    wrows = np.nonzero(warm)[0]
    if wrows.size:
        _, srv = make_served(wrows)
        lo_s, hi_s = lo[wrows], hi[wrows]
        fl, fh = f_lo[wrows], f_hi[wrows]
        it_s = np.zeros(wrows.size, dtype=np.int64)
        side = np.zeros(wrows.size, dtype=np.int64)
        act = np.ones(wrows.size, dtype=bool)
        xtol = ld._WARM_XTOL
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for _ in range(ld._NU_ITERS):
                mid = hi_s - fh * ((hi_s - lo_s) / (fh - fl))
                use_mid = ((it_s & 3) == 3) | ~((lo_s < mid) & (mid < hi_s))
                mid = np.where(use_mid, 0.5 * (lo_s + hi_s), mid)
                act &= ~((mid == lo_s) | (mid == hi_s))
                if not act.any():
                    break
                fm = srv(mid) - lam
                neg = fm < 0.0
                upd_lo = act & neg
                upd_hi = act ^ upd_lo
                fh = np.where(upd_lo & (side == -1), 0.5 * fh, fh)
                lo_s = np.where(upd_lo, mid, lo_s)
                fl = np.where(upd_lo, fm, fl)
                fl = np.where(upd_hi & (side == 1), 0.5 * fl, fl)
                hi_s = np.where(upd_hi, mid, hi_s)
                fh = np.where(upd_hi, fm, fh)
                side = np.where(upd_lo, -1, np.where(upd_hi, 1, side))
                it_s += act
                act &= ~(
                    hi_s - lo_s <= xtol * np.maximum(np.abs(lo_s), np.abs(hi_s))
                )
        lo[wrows], hi[wrows] = lo_s, hi_s
        iters[wrows] = it_s

    loads = np.zeros_like(x)
    alive = np.nonzero(~dead)[0]
    if alive.size:
        loads_a, _ = make_served(alive)
        loads[alive] = _close_residual_rows(
            lam, loads_a(hi[alive]), caps[alive], n[alive]
        )
    return loads, hi, iters, warm, dead


def _facility_rows(
    pue: float,
    static_it: np.ndarray,
    n: np.ndarray,
    c: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Per-row facility power, scalar op order: ``pue * (static + Σ n·c·l)``.

    ``static_it`` is the per-row static-power sum over each row's on-set.
    """
    return pue * (static_it + _rowsum(n * c * loads, axis=1))


def _solve_partition(
    problem: SlotProblem,
    levels: np.ndarray,
    cols: np.ndarray,
    hint: LoadDistribution | None,
) -> list[LoadDistribution | None]:
    """Batched :func:`distribute_load` for rows sharing one on-count.

    ``cols`` is the ``(B, Gon)`` per-row on-set column-index matrix
    (ascending per row, the order ``np.nonzero`` and the scalar compaction
    both use); rows may have entirely different on-masks as long as they
    have the same size.
    """
    fleet = problem.fleet
    lam = problem.arrival_rate
    B = levels.shape[0]
    G = fleet.num_groups

    lv_on = _take(levels, cols)
    x = fleet.speed_table[cols, lv_on]
    c = fleet.dyn_coeff[cols, lv_on]
    n = fleet.counts[cols]

    results: list[LoadDistribution | None] = [None] * B
    feasible = ~(
        lam > problem.gamma * _rowsum(n * x, axis=1) * (1.0 + 1e-12)
    )
    if not feasible.any():
        return results

    pue = problem.pue
    static_it = _rowsum(n * fleet.static_power[cols], axis=1)
    onsite = problem.onsite

    idx = np.nonzero(feasible)[0]
    xs, cs, ns = x[idx], c[idx], n[idx]
    st = static_it[idx]
    colf = cols[idx]
    Bf = idx.size
    total_iters = np.zeros(Bf, dtype=np.int64)
    warm_any = np.zeros(Bf, dtype=bool)

    def finish(k_local: int, loads_on, nu, regime, weight) -> None:
        full = np.zeros(G)
        full[colf[k_local]] = loads_on
        results[int(idx[k_local])] = LoadDistribution(
            full,
            float(nu),
            regime,
            float(weight),
            bool(warm_any[k_local]),
            int(total_iters[k_local]),
        )

    # Regime "billed": full electricity weight.  The LinearTariff marginal
    # is draw-independent, so the scalar fixed point converges in its
    # single pass with the same ``we`` for every row.
    we = problem.V * problem.tariff.marginal(0.0, problem.price) + problem.q
    billed_hint = None
    if hint is not None and hint.regime == "billed" and np.isfinite(hint.nu):
        billed_hint = np.full(Bf, hint.nu)
    loads_a, nu_a, it_a, warm_a, dead_a = _waterfill_rows(
        problem, lam, np.full(Bf, we), xs, cs, ns, nu_hint=billed_hint
    )
    total_iters += it_a
    warm_any |= warm_a
    fac_a = _facility_rows(pue, st, ns, cs, loads_a)
    billed = ~dead_a & (fac_a >= onsite * (1.0 - 1e-12))
    for k in np.nonzero(billed)[0]:
        finish(k, loads_a[k], nu_a[k], "billed", we)
    todo = np.nonzero(~dead_a & ~billed)[0]
    if todo.size == 0:
        return results

    # Regime "free": renewables may cover everything -> zero weight.
    free_hint = None
    if hint is not None and hint.regime == "free" and np.isfinite(hint.nu):
        free_hint = np.full(todo.size, hint.nu)
    loads_b, nu_b, it_b, warm_b, dead_b = _waterfill_rows(
        problem, lam, np.zeros(todo.size), xs[todo], cs[todo], ns[todo],
        nu_hint=free_hint,
    )
    total_iters[todo] += it_b
    warm_any[todo] |= warm_b
    fac_b = _facility_rows(pue, st[todo], ns[todo], cs[todo], loads_b)
    free = ~dead_b & (fac_b <= onsite * (1.0 + 1e-12))
    for j in np.nonzero(free)[0]:
        finish(todo[j], loads_b[j], nu_b[j], "free", 0.0)
    bnd = np.nonzero(~dead_b & ~free)[0]  # indices into ``todo``
    if bnd.size == 0:
        return results

    # Regime "boundary": bisect mu in (0, we) so facility == onsite, every
    # mu step a fresh batched water-fill over the still-active rows.
    rows = todo[bnd]  # indices into the feasible set
    Bb = rows.size
    xb, cb, nb = xs[rows], cs[rows], ns[rows]
    stb = st[rows]
    lo_mu = np.zeros(Bb)
    hi_mu = np.full(Bb, we)
    nu_chain = np.full(Bb, np.nan)
    if (
        hint is not None
        and hint.regime == "boundary"
        and 0.0 < hint.electricity_weight < we
    ):
        mu_h = hint.electricity_weight
        pending = np.ones(Bb, dtype=bool)
        for rtol in (ld._WARM_RTOL, ld._WARM_RTOL_WIDE):
            if not np.any(pending):
                break
            w = rtol * max(mu_h, 1e-300)
            cand_lo, cand_hi = max(0.0, mu_h - w), min(we, mu_h + w)
            if cand_lo >= cand_hi:
                continue
            p_idx = np.nonzero(pending)[0]
            hint_vec = np.full(p_idx.size, hint.nu)
            loads_lo, _, it_lo, _, dlo = _waterfill_rows(
                problem, lam, np.full(p_idx.size, cand_lo), xb[p_idx], cb[p_idx],
                nb[p_idx], nu_hint=hint_vec,
            )
            loads_hi, _, it_hi, _, dhi = _waterfill_rows(
                problem, lam, np.full(p_idx.size, cand_hi), xb[p_idx], cb[p_idx],
                nb[p_idx], nu_hint=hint_vec,
            )
            total_iters[rows[p_idx]] += it_lo + it_hi
            ok = (
                ~dlo
                & ~dhi
                & (
                    _facility_rows(pue, stb[p_idx], nb[p_idx], cb[p_idx], loads_lo)
                    > onsite
                )
                & (
                    _facility_rows(pue, stb[p_idx], nb[p_idx], cb[p_idx], loads_hi)
                    <= onsite
                )
            )
            lo_mu[p_idx[ok]] = cand_lo
            hi_mu[p_idx[ok]] = cand_hi
            warm_any[rows[p_idx[ok]]] = True
            nu_chain[p_idx[ok]] = hint.nu
            pending[p_idx[ok]] = False

    loads_m = loads_b[bnd].copy()
    nu_m = nu_b[bnd].copy()
    mu_used = 0.5 * (lo_mu + hi_mu)
    dead_m = np.zeros(Bb, dtype=bool)
    active = np.ones(Bb, dtype=bool)
    for _ in range(ld._MU_ITERS):
        if not np.any(active):
            break
        a_idx = np.nonzero(active)[0]
        mu = 0.5 * (lo_mu[a_idx] + hi_mu[a_idx])
        collapsed = (mu == lo_mu[a_idx]) | (mu == hi_mu[a_idx])
        sub_hint = nu_chain[a_idx] if np.any(np.isfinite(nu_chain[a_idx])) else None
        sl, snu, sit, _, sdead = _waterfill_rows(
            problem, lam, mu, xb[a_idx], cb[a_idx], nb[a_idx], nu_hint=sub_hint
        )
        loads_m[a_idx] = sl
        nu_m[a_idx] = snu
        mu_used[a_idx] = mu
        total_iters[rows[a_idx]] += sit
        dead_m[a_idx[sdead]] = True
        chained = np.isfinite(nu_chain[a_idx])
        nu_chain[a_idx[chained]] = snu[chained]
        fac = _facility_rows(pue, stb[a_idx], nb[a_idx], cb[a_idx], sl)
        cross = fac > onsite
        lo_mu[a_idx[cross]] = mu[cross]
        hi_mu[a_idx[~cross]] = mu[~cross]
        active[a_idx[sdead]] = False
        if ld._EARLY_EXIT:
            active[a_idx[collapsed]] = False
    for k in np.nonzero(~dead_m)[0]:
        finish(rows[k], loads_m[k], nu_m[k], "boundary", mu_used[k])
    return results


# ---------------------------------------------------------------------------
# Public batch API
# ---------------------------------------------------------------------------
def _needs_scalar_fallback(problem: SlotProblem) -> bool:
    """Degenerate instances routed through the scalar solver row by row."""
    if problem.V * problem.delay_weight <= 0.0:
        return True  # Wd == 0: greedy delay-free fill
    if not isinstance(problem.tariff, LinearTariff):
        return True  # per-row fixed point on the tariff marginal
    return False


def distribute_load_batch(
    problem: SlotProblem,
    levels_batch: np.ndarray,
    *,
    hint: LoadDistribution | None = None,
) -> list[LoadDistribution | None]:
    """Solve the load-distribution subproblem for K candidate level vectors.

    Parameters
    ----------
    problem:
        The slot's P3 instance (shared by every row).
    levels_batch:
        ``(K, G)`` integer matrix of candidate level vectors (``-1`` = off).
    hint:
        Optional warm-start hint applied to *every* row (the typical batch
        is all neighbor flips of one base configuration, so one neighbor's
        solution brackets them all).  ``None`` runs the cold path, whose
        rows are bit-identical to the group-level cold solve and within
        1e-9 of per-row :func:`distribute_load` calls.

    Returns
    -------
    One :class:`LoadDistribution` per row, or ``None`` where the scalar
    path would raise :class:`InfeasibleError`.
    """
    levels_batch = np.asarray(levels_batch, dtype=np.int64)
    if levels_batch.ndim != 2:
        raise ValueError("levels_batch must be a (K, G) matrix")
    K, G = levels_batch.shape
    fleet = problem.fleet
    if G != fleet.num_groups:
        raise ValueError("levels_batch must have one column per group")
    lam = problem.arrival_rate

    if lam <= 0.0:
        zero = np.zeros(G)
        return [LoadDistribution(zero.copy(), 0.0, "free", 0.0) for _ in range(K)]

    if _needs_scalar_fallback(problem):
        out: list[LoadDistribution | None] = []
        for k in range(K):
            try:
                out.append(
                    distribute_load(problem, levels_batch[k], hint=hint)
                )
            except InfeasibleError:
                out.append(None)
        return out

    results: list[LoadDistribution | None] = [None] * K
    masks = levels_batch >= 0
    on_counts = masks.sum(axis=1)
    partitions: dict[int, list[int]] = {}
    for k in range(K):
        partitions.setdefault(int(on_counts[k]), []).append(k)
    for gon, row_ids in partitions.items():
        if gon == 0:
            continue  # positive workload, every group off -> infeasible
        rows = np.asarray(row_ids)
        cols = np.nonzero(masks[rows])[1].reshape(rows.size, gon)
        part = _solve_partition(
            problem, np.ascontiguousarray(levels_batch[rows]), cols, hint
        )
        for local, k in enumerate(rows):
            results[int(k)] = part[local]
    return results


def _evaluate_partition(
    problem: SlotProblem,
    levels: np.ndarray,
    loads_full: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Vectorized ``SlotProblem.evaluate(...).objective`` with the cap
    checks folded in (``inf`` where :meth:`violates_caps` trips).

    ``cols`` is the per-row ``(B, Gon)`` on-set column-index matrix (rows
    share an on-count, not necessarily an on-mask)."""
    fleet = problem.fleet
    B = levels.shape[0]

    if cols.shape[1]:
        lv_on = _take(levels, cols)
        x = fleet.speed_table[cols, lv_on]
        coeff = fleet.dyn_coeff[cols, lv_on]
        lam_on = _take(loads_full, cols)
        counts_on = fleet.counts[cols]
        per_server = fleet.static_power[cols] + coeff * lam_on
        it_power = _rowsum(counts_on * per_server, axis=1)
        delay_sum = _rowsum(
            counts_on * problem.delay_model.cost(lam_on, x), axis=1
        )
    else:
        it_power = np.zeros(B)
        delay_sum = np.zeros(B)
    if problem.network_delay > 0.0:
        served = _rowsum(fleet.counts * loads_full, axis=1)
        delay_sum = delay_sum + problem.network_delay * served

    switching_energy = np.zeros(B)
    if problem.switching is not None and problem.prev_on_counts is not None:
        sw = problem.switching
        if sw.enabled:
            on_counts = np.where(levels >= 0, fleet.counts, 0.0)
            delta = on_counts - problem.prev_on_counts
            count = np.sum(np.maximum(delta, 0.0), axis=1)
            if sw.charge_off:
                count += np.sum(np.maximum(-delta, 0.0), axis=1)
            switching_energy = sw.energy_per_toggle * count

    pue = problem.pue
    slot_h = problem.slot_hours
    facility = pue * it_power + switching_energy / slot_h
    brown = np.maximum(facility - problem.onsite, 0.0) * slot_h
    e_cost = tariff_cost_batch(problem.tariff, brown, problem.price)
    d_cost = problem.delay_weight * delay_sum * slot_h
    objective = problem.V * (e_cost + d_cost) + problem.q * brown

    violates = np.zeros(B, dtype=bool)
    if problem.peak_power_cap is not None:
        violates |= facility > problem.peak_power_cap * (1 + 1e-12)
    if problem.max_delay_cost is not None:
        violates |= d_cost > problem.max_delay_cost * (1 + 1e-12)
    return np.where(violates, np.inf, objective)


def objective_batch(
    problem: SlotProblem,
    levels_batch: np.ndarray,
    *,
    hint: LoadDistribution | None = None,
) -> tuple[np.ndarray, list[LoadDistribution | None]]:
    """P3 objectives for K candidate level vectors in one batched pass.

    Returns ``(objectives, dists)``: ``objectives[k]`` is what the scoring
    pipeline (inner solve + evaluate + cap check) returns for row ``k`` --
    bit-identical to it on the group-level cold solve, within 1e-9 on the
    shipped one, ``inf`` for infeasible or cap-violating rows --
    and ``dists[k]`` is the row's :class:`LoadDistribution` (``None`` when
    infeasible).
    """
    levels_batch = np.asarray(levels_batch, dtype=np.int64)
    dists = distribute_load_batch(problem, levels_batch, hint=hint)
    K, G = levels_batch.shape
    objectives = np.full(K, np.inf)
    solved = [k for k in range(K) if dists[k] is not None]
    if not solved:
        return objectives, dists
    loads_full = np.ascontiguousarray(
        np.stack([dists[k].per_server_load for k in solved])
    )
    lv = np.ascontiguousarray(levels_batch[solved])
    masks = lv >= 0
    on_counts = masks.sum(axis=1)
    partitions: dict[int, list[int]] = {}
    for j in range(len(solved)):
        partitions.setdefault(int(on_counts[j]), []).append(j)
    for gon, row_ids in partitions.items():
        rows = np.asarray(row_ids)
        cols = np.nonzero(masks[rows])[1].reshape(rows.size, gon)
        vals = _evaluate_partition(
            problem,
            np.ascontiguousarray(lv[rows]),
            np.ascontiguousarray(loads_full[rows]),
            cols,
        )
        for local, j in enumerate(rows):
            objectives[solved[int(j)]] = vals[local]
    return objectives, dists
