"""The candidate search that ``brute_force_minimizer`` replaced, kept as its oracle.

Same candidate families, grids and order, and the same winner rule, but the
endpoint masses of every candidate go into one NaN-padded ``(n, 4)`` matrix,
``np.unique`` merges repeated masses before the profile
``density(quantile(.))`` is evaluated, and each candidate's perimeter is
the sum of its row.  The library's search forms the same sums by
broadcasting over the families instead, so the two must agree to the bit:
the tests compare their :class:`~isolab.MinimizerResult` records with
``==``.  The result is assembled with the library's ``boundary_set`` and
``perimeter``, which are not under test here.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from isolab import DomainError, Interval, MinimizerResult, boundary_set, perimeter

_MASS_EPS = 1e-9  # tail clip for candidate endpoint masses
_MASS_GAP = 1e-6  # disjointness margin between pieces, in mass
_GRID_STEP = 0.01  # x-pitch of the single-interval mass grid in the bulk


def oracle_minimizer(m, theta: float) -> MinimizerResult:
    """Exhaustive search for the least-perimeter set of measure ``theta``.

    Candidates are parametrized in *mass coordinates*, so each one has
    measure ``theta`` by construction (up to quantile accuracy): single
    intervals ``(q(t), q(t + theta))`` swept over ``t``, the exact
    half-lines at ``q(theta)`` / ``q(1 - theta)``, complements, half-line +
    interval layouts and unions of two bounded intervals on coarser mass
    grids.  Sets touching a finite domain endpoint are covered by the
    half-line-bearing families (their touching endpoint carries no
    perimeter).  The single-interval mass grid matches an x-pitch of
    roughly ``_GRID_STEP`` through the bulk of the measure.

    The minimizing candidate competes against the exact half-lines; ties
    within 1e-12 go to the half-line.  Under 1-convexity Bobkov's theorem says the
    half-line always wins -- this function checks that rather than assuming
    it.
    """
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta={theta!r} outside (0, 1)")

    dom = m.domain
    eps = _MASS_EPS
    span = m.quantile(1.0 - eps) - m.quantile(eps)
    k_single = int(min(2000.0, max(160.0, math.ceil(span / _GRID_STEP) + 1.0)))
    k_pair = 64
    k_split = 11

    tag_chunks: list = []
    end_chunks: list = []

    def add(tag: int, *cols: np.ndarray) -> None:
        arrays = [np.asarray(c, dtype=float).ravel() for c in cols]
        count = arrays[0].size
        if count == 0:
            return
        block = np.full((count, 4), np.nan)
        for j, col in enumerate(arrays):
            block[:, j] = col
        tag_chunks.append(np.full(count, tag, dtype=np.int8))
        end_chunks.append(block)

    # 0/1: the exact half-lines
    add(0, np.array([theta]))
    add(1, np.array([1.0 - theta]))

    # 2: bounded interval (q(t), q(t + theta))
    if 1.0 - theta - eps > eps:
        t = np.linspace(eps, 1.0 - theta - eps, k_single)
        add(2, t, t + theta)

    # 3: complement pair (-inf, q(t)) u (q(t + 1 - theta), +inf)
    if theta - eps > eps:
        t = np.linspace(eps, theta - eps, k_single)
        add(3, t, t + (1.0 - theta))

    splits = np.linspace(
        theta / (k_split + 1.0), theta * k_split / (k_split + 1.0), k_split
    )
    base = np.linspace(eps, 1.0 - eps, k_pair)
    for s in splits:
        # 4: left half-line of mass s + interval of mass theta - s
        lo_t = s + _MASS_GAP
        hi_t = 1.0 - (theta - s) - eps
        if hi_t > lo_t:
            t = np.linspace(lo_t, hi_t, k_pair)
            add(4, np.full(k_pair, s), t, t + (theta - s))
        # 5: interval of mass s + right half-line of mass theta - s
        hi_t = 1.0 - theta - _MASS_GAP
        if hi_t > eps:
            t = np.linspace(eps, hi_t, k_pair)
            add(5, t, t + s, np.full(k_pair, 1.0 - (theta - s)))
        # 6: two bounded intervals of masses s and theta - s
        t1, t2 = np.meshgrid(base, base, indexing="ij")
        ok = (t1 + s + _MASS_GAP <= t2) & (t2 + (theta - s) <= 1.0 - eps)
        if np.any(ok):
            add(6, t1[ok], t1[ok] + s, t2[ok], t2[ok] + (theta - s))

    tags = np.concatenate(tag_chunks)
    ends = np.vstack(end_chunks)
    checked = int(tags.size)

    flat = ends.ravel()
    known = ~np.isnan(flat)
    uniq, inverse = np.unique(flat[known], return_inverse=True)
    dens_at_q = np.asarray(m.density(m.quantile(uniq)), dtype=float)
    contrib = np.zeros(flat.size)
    contrib[known] = dens_at_q[inverse]
    peri = contrib.reshape(ends.shape).sum(axis=1)

    k_best = int(np.argmin(peri))
    win_tag = int(tags[k_best])
    exact_q = [m.quantile(float(v)) for v in ends[k_best] if not math.isnan(v)]

    def pieces_for(tag: int, q: Sequence[float]) -> Tuple[Interval, ...]:
        if tag == 0:
            return (Interval(dom.lo, q[0]),)
        if tag == 1:
            return (Interval(q[0], dom.hi),)
        if tag == 2:
            return (Interval(q[0], q[1]),)
        if tag == 3:
            return (Interval(dom.lo, q[0]), Interval(q[1], dom.hi))
        if tag == 4:
            return (Interval(dom.lo, q[0]), Interval(q[1], q[2]))
        if tag == 5:
            return (Interval(q[0], q[1]), Interval(q[2], dom.hi))
        return (Interval(q[0], q[1]), Interval(q[2], q[3]))

    best_bs = boundary_set(m, list(pieces_for(win_tag, exact_q)))
    best_peri = perimeter(m, best_bs)

    left = boundary_set(m, [Interval(dom.lo, m.quantile(theta))])
    right = boundary_set(m, [Interval(m.quantile(1.0 - theta), dom.hi)])
    pl, pr = perimeter(m, left), perimeter(m, right)
    half_peri, half_bs = (pl, left) if pl <= pr else (pr, right)

    if half_peri <= best_peri + 1e-12:
        return MinimizerResult(half_bs, half_peri, True, checked)
    return MinimizerResult(best_bs, best_peri, win_tag in (0, 1), checked)
