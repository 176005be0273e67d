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
either an exact vectorized pairwise sum or a Barnes-Hut quadtree
approximation; a minimum-distance guard keeps every division finite even
for coincident points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .model import GraphView, Handle, InteractionGraph, check_finite, undirected_view

_EPS_DIST = 1e-9
_MAX_TREE_DEPTH = 48
_MIN_SPEED_EFFICIENCY = 0.05
_BLOCK = 65_536  # elements per exact-repulsion block


@dataclass(frozen=True)
class LayoutConfig:
    scaling_kr: float = 2.0
    gravity_kg: float = 1.0
    edge_weight_influence: float = 1.0
    barnes_hut: bool | None = None  # None: auto, on for n > 1000
    theta: float = 1.2
    jitter_tolerance: float = 1.0
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.scaling_kr <= 0:
            raise ValueError("scaling_kr must be positive")
        if self.gravity_kg < 0 or self.edge_weight_influence < 0:
            raise ValueError("gravity_kg and edge_weight_influence must be non-negative")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.jitter_tolerance <= 0:
            raise ValueError("jitter_tolerance must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")

    def use_barnes_hut(self, node_count: int) -> bool:
        if self.barnes_hut is None:
            return node_count > 1000
        return self.barnes_hut


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
    """Graph constants of a symmetric view: sorted nodes, masses (1 + the
    neighbor count), and each adjacent pair once as ``u < v``."""

    __slots__ = ("nodes", "mass", "edge_u", "edge_v", "edge_f")

    def __init__(self, view: GraphView, edge_weight_influence: float):
        self.nodes = view.handles
        self.mass = 1.0 + np.diff(view.indptr)
        upper = view.src < view.dst
        self.edge_u = view.src[upper]
        self.edge_v = view.dst[upper]
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


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate [start, start+count) ranges into one index array."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = counts.cumsum()
    inner = np.arange(total) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + inner


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
        off = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=np.float64)

        levels: list[tuple[np.ndarray, ...]] = []  # per depth, in __slots__ order
        next_id = 1
        order = np.arange(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        counts = np.array([n], dtype=np.int64)
        depth = 0

        while len(starts):
            n_cells = len(starts)
            ends = starts + counts
            m_ord = mass[order]
            cum_m = np.concatenate([[0.0], np.cumsum(m_ord)])
            cum_x = np.concatenate([[0.0], np.cumsum(m_ord * x[order])])
            cum_y = np.concatenate([[0.0], np.cumsum(m_ord * y[order])])
            c_mass = cum_m[ends] - cum_m[starts]
            com_x = (cum_x[ends] - cum_x[starts]) / c_mass
            com_y = (cum_y[ends] - cum_y[starts]) / c_mass
            is_leaf = (counts == 1) | (depth >= _MAX_TREE_DEPTH)

            # Cell size: twice the largest point offset from the center of
            # mass. A cell containing the probe node can then never pass
            # the far test (theta <= 2), so no self-force sneaks in.
            sel = _segments(starts, counts)
            owner = np.repeat(np.arange(n_cells), counts)
            pts = order[sel]
            dx = x[pts] - com_x[owner]
            dy = y[pts] - com_y[owner]
            spread = np.sqrt(dx * dx + dy * dy)
            size = 2.0 * np.maximum.reduceat(spread, np.cumsum(counts) - counts)

            split = ~is_leaf[owner]
            sel, owner, pts = sel[split], owner[split], pts[split]
            key = owner * 4 + (x[pts] >= cx[owner]) + 2 * (y[pts] >= cy[owner])
            perm = np.argsort(key, kind="stable")
            order[sel] = pts[perm]
            uniq, first, child_points = np.unique(
                key[perm], return_index=True, return_counts=True
            )
            parent = uniq // 4
            child_count = np.bincount(parent, minlength=n_cells)
            first_child = next_id + np.cumsum(child_count) - child_count
            next_id += len(uniq)
            levels.append(
                (size, com_x, com_y, c_mass, first_child, child_count, starts, counts)
            )

            h2 = half[parent] / 2.0
            starts = sel[first]
            counts = child_points
            cx = cx[parent] + off[uniq % 4, 0] * h2
            cy = cy[parent] + off[uniq % 4, 1] * h2
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
    excluded.
    """
    n = len(pos)
    fx, fy = np.zeros((2, n))
    if n < 2:
        return fx, fy
    x, y = np.ascontiguousarray(pos.T)
    tree = _QuadTree(x, y, mass)

    nodes = np.arange(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    while len(nodes):
        dx = x[nodes] - tree.com_x[cells]
        dy = y[nodes] - tree.com_y[cells]
        dist = np.sqrt(dx * dx + dy * dy)
        np.maximum(dist, _EPS_DIST, out=dist)

        kids = tree.child_count[cells]
        leaf = kids == 0
        far = (dist * theta > tree.size[cells]) & ~leaf

        lc = cells[leaf]
        counts = tree.point_count[lc]
        src = np.repeat(nodes[leaf], counts)
        tgt = tree.order[_segments(tree.point_start[lc], counts)]
        keep = src != tgt
        src, tgt = src[keep], tgt[keep]
        pdx = x[src] - x[tgt]
        pdy = y[src] - y[tgt]
        d = np.sqrt(pdx * pdx + pdy * pdy)
        np.maximum(d, _EPS_DIST, out=d)

        # Far cells, then leaf points: the fixed order each node's terms are summed in.
        idx = np.concatenate([nodes[far], src])
        if len(idx):
            d = np.concatenate([dist[far], d])
            other = np.concatenate([tree.mass[cells[far]], mass[tgt]])
            factor = kr * mass[idx] * other / (d * d)
            fx, fy = _add_in_order(
                fx, fy, idx,
                np.concatenate([dx[far], pdx]) * factor,
                np.concatenate([dy[far], pdy]) * factor,
            )

        descend = ~far & ~leaf
        kids = kids[descend]
        nodes = np.repeat(nodes[descend], kids)
        cells = _segments(tree.first_child[cells[descend]], kids)
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
    x, y = pos[:, 0], pos[:, 1]
    fx, fy = _repulsion(pos, arrays.mass, config, barnes_hut)

    if config.gravity_kg > 0:
        dist = np.sqrt(x * x + y * y)
        np.maximum(dist, _EPS_DIST, out=dist)
        pull = config.gravity_kg * arrays.mass
        fx = fx - x / dist * pull
        fy = fy - y / dist * pull

    u, v = arrays.edge_u, arrays.edge_v
    if len(u):
        pull_x = (x[u] - x[v]) * arrays.edge_f
        pull_y = (y[u] - y[v]) * arrays.edge_f
        fx, fy = _add_in_order(
            fx, fy, np.concatenate([u, v]),
            np.concatenate([-pull_x, pull_x]), np.concatenate([-pull_y, pull_y]),
        )
    return np.stack([fx, fy], axis=1)


def _apply_forces(
    pos: np.ndarray,
    old_forces: np.ndarray,
    forces: np.ndarray,
    mass: np.ndarray,
    config: LayoutConfig,
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
    jt = config.jitter_tolerance * min(
        10.0, max(math.sqrt(est_jt), est_jt * total_traction / (n * n))
    )
    if total_swing / total_traction > 2.0:
        if speed_efficiency > _MIN_SPEED_EFFICIENCY:
            speed_efficiency *= 0.5
        jt = max(jt, config.jitter_tolerance)

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
        raise ArithmeticError("layout produced a non-finite coordinate")
    return new_pos, speed, speed_efficiency


def _frame_to_state(
    frame: LayoutFrame, arrays: _Arrays
) -> tuple[np.ndarray, np.ndarray]:
    try:
        pos = np.array([frame.positions[h] for h in arrays.nodes], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"frame is missing a position for node {exc.args[0]}") from exc
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


def run_layout(
    graph: InteractionGraph | GraphView,
    config: LayoutConfig | None = None,
    frame: LayoutFrame | None = None,
) -> LayoutFrame:
    """Run ``config.iterations`` steps from a seeded (or given) initial frame."""
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
    for _ in range(config.iterations):
        forces = _compute_forces(pos, arrays, config, barnes_hut)
        pos, speed, eff = _apply_forces(
            pos, old_forces, forces, arrays.mass, config, speed, eff
        )
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
