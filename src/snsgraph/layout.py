"""ForceAtlas2 force-directed layout.

The force model follows the published ForceAtlas2 design on the undirected
merged view of the graph:

* attraction along each edge, linear in distance and scaled by
  ``weight ** edge_weight_influence``;
* degree-mass repulsion between every node pair,
  ``kr * (deg(u)+1) * (deg(v)+1) / d``;
* constant-magnitude gravity ``kg * (deg(u)+1)`` toward the origin;
* the swinging/traction adaptive speed scheme, with the per-step speed
  rise capped so the global speed can never explode.

All forces of a step are computed from the previous frame, each node's
terms are summed in a fixed order, and the step is applied synchronously,
so a (graph, config, seed) triple replays bit-identically. Repulsion is
an exact vectorized pairwise sum up to 1,000 nodes and a Barnes-Hut
quadtree approximation above; a minimum-distance guard keeps every
division finite even for coincident points.
"""

from __future__ import annotations

import ctypes  # numpy imports it already
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import LayoutDivergenceError
from .model import GraphView, Handle, InteractionGraph, check_finite, undirected_view

_EPS_DIST = 1e-9
_MAX_TREE_DEPTH = 48
_MIN_SPEED_EFFICIENCY = 0.05
_BLOCK = 65_536  # elements per exact-repulsion block
_BH_NODES = 2048  # nodes per Barnes-Hut walk: bounds the walk's frontier arrays
_JITTER_TOLERANCE = 1.0  # ForceAtlas2's default jitter tolerance
_EXACT_MAX_NODES = 1000  # exact repulsion up to this many nodes, Barnes-Hut above


@dataclass(frozen=True)
class LayoutConfig:
    scaling_kr: float = 2.0
    gravity_kg: float = 1.0
    edge_weight_influence: float = 1.0
    theta: float = 1.2
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.scaling_kr <= 0:
            raise ValueError("scaling_kr must be positive")
        if self.gravity_kg < 0 or self.edge_weight_influence < 0:
            raise ValueError("gravity_kg and edge_weight_influence must be non-negative")
        if not 0 < self.theta <= 2:
            raise ValueError("theta must be in (0, 2]")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")

    def use_barnes_hut(self, node_count: int) -> bool:
        return node_count > _EXACT_MAX_NODES


@dataclass(frozen=True)
class LayoutFrame:
    """Node positions plus the adaptive-speed state carried between steps."""

    positions: dict[Handle, tuple[float, float]]
    iteration: int = 0
    global_speed: float = 1.0
    speed_efficiency: float = 1.0
    prev_forces: dict[Handle, tuple[float, float]] = field(default_factory=dict)


def init_layout(graph: InteractionGraph | GraphView, seed: int) -> LayoutFrame:
    """Seeded uniform positions in a square centered on the origin."""
    nodes = undirected_view(graph).handles
    rng = random.Random(seed)
    side = max(1.0, math.sqrt(max(len(nodes), 1)))
    positions = {
        h: (rng.uniform(-side / 2, side / 2), rng.uniform(-side / 2, side / 2))
        for h in nodes
    }
    return LayoutFrame(positions=positions)


class _Arrays:
    """Per-run constants of a symmetric view: sorted nodes, masses (1 + the neighbor count),
    and ``scatter``, the arc index: each node, then views ``edge_u`` and ``edge_v`` (u < v)."""

    __slots__ = ("nodes", "mass", "scatter", "edge_u", "edge_v", "edge_f")

    def __init__(self, view: GraphView, edge_weight_influence: float):
        self.nodes = view.handles
        self.mass = 1.0 + np.diff(view.indptr)
        upper = view.src < view.dst
        self.scatter = np.concatenate([np.arange(view.node_count), view.src[upper], view.dst[upper]])
        self.edge_u, self.edge_v = self.scatter[view.node_count:].reshape(2, -1)
        self.edge_f = view.weights[upper] ** edge_weight_influence


def _exact_repulsion(
    pos: np.ndarray, mass: np.ndarray, kr: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact pairwise repulsion over blocks of target nodes.

    Blocks are laid out ``[j, i]`` (source j, target i) and reduced over
    axis 0, which numpy accumulates one source at a time in index order;
    a reduction along the contiguous last axis would be pairwise and drift
    in the last bits. So would a one-column block, so none is made. Each
    block holds about ``_BLOCK`` elements, which keeps its four buffers in
    cache; a target's sum does not depend on the block it falls in.
    """
    n = len(pos)
    x, y = pos[:, 0], pos[:, 1]
    fx, fy = np.empty((2, n))
    width = max(2, _BLOCK // max(n, 1))
    start = 0
    while start < n:
        stop = n if n - start < width + 2 else start + width
        dx = x[start:stop] - x[:, None]
        dy = y[start:stop] - y[:, None]
        dist = dx * dx
        factor = np.multiply(dy, dy)  # dy², then reused for the force factor
        dist += factor
        np.sqrt(dist, out=dist)
        np.maximum(dist, _EPS_DIST, out=dist)
        dist *= dist
        np.multiply(mass[:, None], mass[start:stop], out=factor)
        factor *= kr
        factor /= dist
        cols = np.arange(stop - start)
        factor[cols + start, cols] = 0.0
        dx *= factor
        dy *= factor
        dx.sum(axis=0, out=fx[start:stop])
        dy.sum(axis=0, out=fy[start:stop])
        start = stop
    return fx, fy


def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, entries)``: [start, start+count) ranges end to end, and each one's range."""
    owner = np.repeat(np.arange(len(counts)), counts)
    shift = starts - (counts.cumsum() - counts)
    return owner, np.arange(len(owner)) + shift.take(owner)


def _add_in_order(
    fx: np.ndarray, fy: np.ndarray, index: np.ndarray, wx: np.ndarray, wy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``f[index[k]] += w[k]`` for each k in turn, as ``np.add.at`` would.

    ``np.bincount`` adds its weights one after another in input order, so
    seeding bin i with ``f[i]`` first (``0.0 + f[i] == f[i]``) gives the
    in-place sums bit for bit.
    """
    at = np.concatenate([np.arange(len(fx)), index])
    return np.bincount(at, np.concatenate([fx, wx])), np.bincount(at, np.concatenate([fy, wy]))


class _QuadTree:
    """Flattened quadtree over 2D points, rebuilt each step.

    The tree is constructed level-synchronously: every cell of a depth is
    split in one batch of array operations, so the build stays cheap even
    when it runs every iteration. Cells live in parallel arrays; a cell's
    children are the ``child_count`` consecutive ids from ``first_child``
    (ids are handed out in parent, then quadrant order), and a cell with
    none is a leaf. A cell's points are ``point_count`` consecutive entries
    of ``order`` from ``point_start``: each split only permutes points
    within the cell being split, so the ranges of finished leaves stay
    valid. Coincident points that survive to the maximum depth share one
    multi-point leaf.
    """

    __slots__ = (
        "size", "com_x", "com_y", "mass", "first_child", "child_count",
        "point_start", "point_count", "order",
    )

    def __init__(self, x: np.ndarray, y: np.ndarray, mass: np.ndarray):
        n = len(x)
        lo = np.array([[x.min()], [y.min()]])
        hi = np.array([[x.max()], [y.max()]])
        cx, cy = (lo + hi) / 2.0
        half = np.array([max((hi - lo).max() / 2.0, _EPS_DIST) * 1.0000001])
        off = np.array([[-1, 1, -1, 1], [-1, -1, 1, 1]], dtype=np.float64)

        levels: list[tuple[np.ndarray, ...]] = []  # per depth, in __slots__ order
        next_id = 1
        order = np.arange(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        counts = np.array([n], dtype=np.int64)
        depth = 0

        while len(starts):
            ends = starts + counts
            m_ord = mass.take(order)
            cum_m = np.concatenate([[0.0], np.cumsum(m_ord)])
            cum_x = np.concatenate([[0.0], np.cumsum(m_ord * x.take(order))])
            cum_y = np.concatenate([[0.0], np.cumsum(m_ord * y.take(order))])
            c_mass = cum_m.take(ends) - cum_m.take(starts)
            com_x = (cum_x.take(ends) - cum_x.take(starts)) / c_mass
            com_y = (cum_y.take(ends) - cum_y.take(starts)) / c_mass
            is_leaf = (counts == 1) | (depth >= _MAX_TREE_DEPTH)

            # Cell size: twice the largest point offset from the center of
            # mass. With theta <= 2 (LayoutConfig) a cell holding the probe
            # node fails the far test unless its spread is under _EPS_DIST.
            owner, sel = _expand(starts, counts)
            pts = order.take(sel)
            dx = x.take(pts) - com_x.take(owner)
            dy = y.take(pts) - com_y.take(owner)
            spread = np.sqrt(dx * dx + dy * dy)
            size = 2.0 * np.maximum.reduceat(spread, np.cumsum(counts) - counts)

            split = np.flatnonzero(~is_leaf.take(owner))
            sel, owner, pts = sel.take(split), owner.take(split), pts.take(split)
            key = owner * 4 + (x.take(pts) >= cx.take(owner))
            key += 2 * (y.take(pts) >= cy.take(owner))
            perm = np.argsort(key, kind="stable")
            order[sel] = pts.take(perm)
            uniq, first, child_points = np.unique(
                key.take(perm), return_index=True, return_counts=True
            )
            parent = uniq // 4
            child_count = np.bincount(parent, minlength=len(starts))
            first_child = next_id + np.cumsum(child_count) - child_count
            next_id += len(uniq)
            levels.append(
                (size, com_x, com_y, c_mass, first_child, child_count, starts, counts)
            )

            h2 = half.take(parent) / 2.0
            starts = sel.take(first)
            counts = child_points
            cx = cx.take(parent) + off[0].take(uniq % 4) * h2
            cy = cy.take(parent) + off[1].take(uniq % 4) * h2
            half = h2
            depth += 1

        for name, chunks in zip(self.__slots__, zip(*levels)):
            setattr(self, name, np.concatenate(chunks))
        self.order = order


def _bh_repulsion(
    pos: np.ndarray, mass: np.ndarray, kr: float, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Barnes-Hut approximate repulsion.

    A cell is aggregated into a single point at its center of mass when
    ``distance * theta`` exceeds the cell size; otherwise its children
    are visited. Leaves are evaluated exactly with the node itself
    excluded. Gathers use ``take`` on index arrays, far cheaper than masks.
    """
    n = len(pos)
    fx, fy = np.zeros((2, n))
    if n < 2:
        return fx, fy
    x, y = np.ascontiguousarray(pos.T)
    tree = _QuadTree(x, y, mass)
    kr_mass = kr * mass

    for lo in range(0, n, _BH_NODES):  # one tree, walked for a chunk of nodes at a time
        hi = min(lo + _BH_NODES, n)
        nodes = np.arange(lo, hi, dtype=np.int64)
        cells = np.zeros(hi - lo, dtype=np.int64)
        while len(nodes):
            dx = x.take(nodes) - tree.com_x.take(cells)
            dy = y.take(nodes) - tree.com_y.take(cells)
            dist = np.sqrt(dx * dx + dy * dy)
            np.maximum(dist, _EPS_DIST, out=dist)
            kids = tree.child_count.take(cells)
            leaf = kids == 0
            far = (dist * theta > tree.size.take(cells)) & ~leaf
            descend = np.flatnonzero(~far & ~leaf)
            far, leaf = np.flatnonzero(far), np.flatnonzero(leaf)
            del dist

            lc = cells.take(leaf)
            owner, entries = _expand(tree.point_start.take(lc), tree.point_count.take(lc))
            src, tgt = nodes.take(leaf.take(owner)), tree.order.take(entries)
            keep = np.flatnonzero(src != tgt)
            src, tgt = src.take(keep), tgt.take(keep)
            del lc, owner, entries, keep

            # Far cells, then leaf points: the fixed order each node's terms are
            # summed in. A far cell's distance is recomputed from its offsets.
            idx = np.concatenate([nodes.take(far), src])
            tx = np.concatenate([dx.take(far), x.take(src) - x.take(tgt)])
            ty = np.concatenate([dy.take(far), y.take(src) - y.take(tgt)])
            factor = kr_mass.take(idx)
            factor *= np.concatenate([tree.mass.take(cells.take(far)), mass.take(tgt)])
            del dx, dy, src, tgt
            d = np.sqrt(tx * tx + ty * ty)
            np.maximum(d, _EPS_DIST, out=d)
            factor /= d * d
            tx *= factor
            ty *= factor
            del d, factor
            if len(idx):
                fx[lo:hi], fy[lo:hi] = _add_in_order(fx[lo:hi], fy[lo:hi], idx - lo, tx, ty)
            del idx, tx, ty

            owner, cells = _expand(tree.first_child.take(cells.take(descend)), kids.take(descend))
            nodes = nodes.take(descend.take(owner))
    return fx, fy


def _repulsion(
    pos: np.ndarray, mass: np.ndarray, config: LayoutConfig, barnes_hut: bool
) -> tuple[np.ndarray, np.ndarray]:
    if barnes_hut:
        return _bh_repulsion(pos, mass, config.scaling_kr, config.theta)
    return _exact_repulsion(pos, mass, config.scaling_kr)


def _compute_forces(
    pos: np.ndarray, arrays: _Arrays, config: LayoutConfig, barnes_hut: bool
) -> np.ndarray:
    """Repulsion, gravity, then arc pulls: one bincount per axis over the index built per run."""
    x, y = pos[:, 0], pos[:, 1]
    fx, fy = _repulsion(pos, arrays.mass, config, barnes_hut)

    if config.gravity_kg > 0:
        dist = np.sqrt(x * x + y * y)
        np.maximum(dist, _EPS_DIST, out=dist)
        pull = config.gravity_kg * arrays.mass
        fx = fx - x / dist * pull
        fy = fy - y / dist * pull

    u, v = arrays.edge_u, arrays.edge_v
    if len(u):  # each node's force so far, then its arcs' pulls in arc order
        pull = (x[u] - x[v]) * arrays.edge_f
        fx = np.bincount(arrays.scatter, np.concatenate([fx, -pull, pull]))
        pull = (y[u] - y[v]) * arrays.edge_f
        fy = np.bincount(arrays.scatter, np.concatenate([fy, -pull, pull]))
    return np.stack([fx, fy], axis=1)


def _apply_forces(
    pos: np.ndarray,
    old_forces: np.ndarray,
    forces: np.ndarray,
    mass: np.ndarray,
    speed: float,
    speed_efficiency: float,
) -> tuple[np.ndarray, float, float]:
    """Swinging/traction adaptive speed update; returns (pos, speed, efficiency)."""
    n = len(pos)
    swing = np.sqrt(((old_forces - forces) ** 2).sum(axis=1))
    traction = np.sqrt(((old_forces + forces) ** 2).sum(axis=1)) / 2.0
    total_swing = max(float((mass * swing).sum()), 1e-30)
    total_traction = max(float((mass * traction).sum()), 1e-30)

    est_jt = 0.05 * math.sqrt(n)
    jt = _JITTER_TOLERANCE * min(
        10.0, max(math.sqrt(est_jt), est_jt * total_traction / (n * n))
    )
    if total_swing / total_traction > 2.0:
        if speed_efficiency > _MIN_SPEED_EFFICIENCY:
            speed_efficiency *= 0.5
        jt = max(jt, _JITTER_TOLERANCE)

    target_speed = jt * speed_efficiency * total_traction / total_swing
    if total_swing > jt * total_traction:
        if speed_efficiency > _MIN_SPEED_EFFICIENCY:
            speed_efficiency *= 0.7
    elif speed < 1000.0:
        speed_efficiency *= 1.3
    # Rise is capped at +50% per step, well inside the 10x runaway guard.
    speed = max(speed + min(target_speed - speed, 0.5 * speed), 1e-30)

    factor = speed / (1.0 + np.sqrt(speed * mass * swing))
    new_pos = pos + forces * factor[:, None]
    if not np.isfinite(new_pos).all():
        raise LayoutDivergenceError("layout produced a non-finite coordinate")
    return new_pos, speed, speed_efficiency


def _frame_to_state(
    frame: LayoutFrame, arrays: _Arrays
) -> tuple[np.ndarray, np.ndarray]:
    try:
        pos = np.array([frame.positions[h] for h in arrays.nodes], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"frame is missing a position for node {exc.args[0]}") from exc
    pos = pos.reshape(len(arrays.nodes), 2)
    if frame.prev_forces:
        old = np.array(
            [frame.prev_forces.get(h, (0.0, 0.0)) for h in arrays.nodes],
            dtype=np.float64,
        )
    else:
        old = np.zeros_like(pos)
    return pos, old


def _state_to_frame(
    arrays: _Arrays,
    pos: np.ndarray,
    forces: np.ndarray,
    iteration: int,
    speed: float,
    speed_efficiency: float,
) -> LayoutFrame:
    return LayoutFrame(
        positions={h: (float(x), float(y)) for h, (x, y) in zip(arrays.nodes, pos)},
        iteration=iteration,
        global_speed=speed,
        speed_efficiency=speed_efficiency,
        prev_forces={h: (float(x), float(y)) for h, (x, y) in zip(arrays.nodes, forces)},
    )


def _keep_freed_memory() -> None:
    """Keep freed blocks under 4 MiB mapped, so no step faults in fresh zeroed pages."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks below it come from the heap
        libc.mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: the heap's free top is kept below it
    except (AttributeError, OSError, TypeError):  # no C library, or one without mallopt(3)
        pass


def run_layout(
    graph: InteractionGraph | GraphView,
    config: LayoutConfig | None = None,
    frame: LayoutFrame | None = None,
) -> LayoutFrame:
    """Run ``config.iterations`` steps from a seeded (or given) initial frame.

    First it has malloc keep freed blocks mapped, process-wide; that moves arrays, never their values.
    """
    _keep_freed_memory()
    config = config or LayoutConfig()
    view = undirected_view(graph)
    if frame is None:
        frame = init_layout(view, config.seed)
    if view.node_count == 0 or config.iterations == 0:
        return frame

    arrays = _Arrays(view, config.edge_weight_influence)
    pos, old_forces = _frame_to_state(frame, arrays)
    barnes_hut = config.use_barnes_hut(len(pos))
    speed = frame.global_speed
    eff = frame.speed_efficiency
    forces = old_forces
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises instead
        for _ in range(config.iterations):
            forces = _compute_forces(pos, arrays, config, barnes_hut)
            pos, speed, eff = _apply_forces(pos, old_forces, forces, arrays.mass, speed, eff)
            old_forces = forces
    return _state_to_frame(
        arrays, pos, forces, frame.iteration + config.iterations, speed, eff
    )


def repulsion_forces(
    graph: InteractionGraph | GraphView,
    frame: LayoutFrame,
    config: LayoutConfig | None = None,
    barnes_hut: bool = False,
) -> dict[Handle, tuple[float, float]]:
    """Repulsion-only force field for one frame; exact or Barnes-Hut.

    Exposed so the approximation error of the quadtree is directly
    observable against the exact pairwise sum.
    """
    config = config or LayoutConfig()
    view = undirected_view(graph)
    arrays = _Arrays(view, config.edge_weight_influence)
    pos, _ = _frame_to_state(frame, arrays)
    fx, fy = _repulsion(pos, arrays.mass, config, barnes_hut)
    return {h: (float(x), float(y)) for h, x, y in zip(arrays.nodes, fx, fy)}
