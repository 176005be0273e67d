import math
from dataclasses import replace

import numpy as np
import pytest

from snsgraph.layout import (
    _BLOCK,
    _EPS_DIST,
    _MAX_TREE_DEPTH,
    LayoutConfig,
    LayoutFrame,
    _Arrays,
    _compute_forces,
    _QuadTree,
    init_layout,
    repulsion_forces,
    run_layout,
)
from snsgraph.model import Handle, InteractionGraph, undirected_view

from conftest import dyads_layout_instance, pairs_graph, random_connected_graph, two_triangle_graph


def fa2_step(graph, frame, config=None):
    """One synchronous layout step: forces from the old frame, applied at once."""
    return run_layout(graph, replace(config or LayoutConfig(), iterations=1), frame)


# Reference kernels: the original ``np.add.at`` formulation of the layout
# forces (4-wide quadtree children, 3-D ``diff`` exact kernel), kept
# verbatim. The production kernels reorganise the work but must add the
# same terms in the same order, so they are required to match these bit
# for bit.

def ref_exact_repulsion(pos: np.ndarray, mass: np.ndarray, kr: float) -> np.ndarray:
    """Exact pairwise repulsion, chunked over rows to bound memory."""
    n = len(pos)
    forces = np.zeros_like(pos)
    chunk = max(1, min(n, 8_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = pos[start:stop, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.maximum(dist, _EPS_DIST, out=dist)
        factor = kr * (mass[start:stop, None] * mass[None, :]) / (dist * dist)
        rows = np.arange(start, stop)
        factor[rows - start, rows] = 0.0
        forces[start:stop] = (diff * factor[:, :, None]).sum(axis=1)
    return forces


def ref_segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate [start, start+count) ranges into one index array."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = counts.cumsum()
    inner = np.arange(total) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + inner


class RefQuadTree:
    """Flattened quadtree over 2D points, rebuilt each step.

    The tree is constructed level-synchronously: every cell of a depth is
    split in one batch of array operations, so the build stays cheap even
    when it runs every iteration. Cells live in parallel arrays; leaves
    index into ``leaf_points``, a permutation of node indices grouped by
    leaf. Coincident points that survive to the maximum depth share one
    multi-point leaf.
    """

    __slots__ = (
        "size", "com", "mass", "children", "is_leaf",
        "leaf_start", "leaf_count", "leaf_points",
    )

    def __init__(self, pos: np.ndarray, mass: np.ndarray):
        n = len(pos)
        mins = pos.min(axis=0)
        maxs = pos.max(axis=0)
        root_center = (mins + maxs) / 2.0
        root_half = float(max((maxs - mins).max() / 2.0, _EPS_DIST)) * 1.0000001

        g_size: list[np.ndarray] = []
        g_com: list[np.ndarray] = []
        g_mass: list[np.ndarray] = []
        g_children: list[np.ndarray] = []
        g_is_leaf: list[np.ndarray] = []
        g_leaf_start: list[np.ndarray] = []
        g_leaf_count: list[np.ndarray] = []
        leaf_chunks: list[np.ndarray] = []
        leaf_total = 0
        next_id = 1

        order = np.arange(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        counts = np.array([n], dtype=np.int64)
        cx = np.array([root_center[0]])
        cy = np.array([root_center[1]])
        half = np.array([root_half])
        depth = 0

        while len(starts):
            ends = starts + counts
            m_ord = mass[order]
            cum_m = np.concatenate([[0.0], np.cumsum(m_ord)])
            cum_x = np.concatenate([[0.0], np.cumsum(m_ord * pos[order, 0])])
            cum_y = np.concatenate([[0.0], np.cumsum(m_ord * pos[order, 1])])
            c_mass = cum_m[ends] - cum_m[starts]
            c_com = np.stack(
                [(cum_x[ends] - cum_x[starts]) / c_mass,
                 (cum_y[ends] - cum_y[starts]) / c_mass],
                axis=1,
            )
            is_leaf = (counts == 1) | (depth >= _MAX_TREE_DEPTH)

            # Cell size: twice the largest point offset from the center of
            # mass. A cell containing the probe node can then never pass
            # the far test (theta <= 2), so no self-force sneaks in.
            all_pts = order[ref_segments(starts, counts)]
            owner_all = np.repeat(np.arange(len(starts)), counts)
            spread = np.sqrt(((pos[all_pts] - c_com[owner_all]) ** 2).sum(axis=1))
            bounds = np.concatenate([[0], np.cumsum(counts)[:-1]])
            c_size = 2.0 * np.maximum.reduceat(spread, bounds)

            g_size.append(c_size)
            g_com.append(c_com)
            g_mass.append(c_mass)
            g_is_leaf.append(is_leaf)

            leaf_start = np.zeros(len(starts), dtype=np.int64)
            leaf_count = np.zeros(len(starts), dtype=np.int64)
            if is_leaf.any():
                lc = counts[is_leaf]
                leaf_start[is_leaf] = leaf_total + np.concatenate(
                    [[0], np.cumsum(lc)[:-1]]
                )
                leaf_count[is_leaf] = lc
                leaf_chunks.append(order[ref_segments(starts[is_leaf], counts[is_leaf])])
                leaf_total += int(lc.sum())
            g_leaf_start.append(leaf_start)
            g_leaf_count.append(leaf_count)

            children = np.full((len(starts), 4), -1, dtype=np.int64)
            sub = ~is_leaf
            if not sub.any():
                g_children.append(children)
                break

            sub_rows = np.flatnonzero(sub)
            sel = ref_segments(starts[sub], counts[sub])
            pts = order[sel]
            owner = np.repeat(np.arange(len(sub_rows)), counts[sub])
            quad = (pos[pts, 0] >= cx[sub][owner]).astype(np.int64) + 2 * (
                pos[pts, 1] >= cy[sub][owner]
            ).astype(np.int64)
            key = owner * 4 + quad
            perm = np.argsort(key, kind="stable")
            order[sel] = pts[perm]
            key_sorted = key[perm]
            uniq, first, child_counts = np.unique(
                key_sorted, return_index=True, return_counts=True
            )
            child_ids = next_id + np.arange(len(uniq), dtype=np.int64)
            next_id += len(uniq)
            children[sub_rows[uniq // 4], uniq % 4] = child_ids
            g_children.append(children)

            h2 = half[sub] / 2.0
            off = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=np.float64)
            parent = uniq // 4
            starts = sel[first]
            counts = child_counts
            cx = cx[sub][parent] + off[uniq % 4, 0] * h2[parent]
            cy = cy[sub][parent] + off[uniq % 4, 1] * h2[parent]
            half = h2[parent]
            depth += 1

        self.size = np.concatenate(g_size)
        self.com = np.concatenate(g_com)
        self.mass = np.concatenate(g_mass)
        self.children = np.concatenate(g_children)
        self.is_leaf = np.concatenate(g_is_leaf)
        self.leaf_start = np.concatenate(g_leaf_start)
        self.leaf_count = np.concatenate(g_leaf_count)
        self.leaf_points = (
            np.concatenate(leaf_chunks) if leaf_chunks else np.zeros(0, dtype=np.int64)
        )


def ref_bh_repulsion(
    pos: np.ndarray, mass: np.ndarray, kr: float, theta: float
) -> np.ndarray:
    """Barnes-Hut approximate repulsion.

    A cell is aggregated into a single point at its center of mass when
    ``distance * theta`` exceeds the cell size; otherwise its children
    are visited. Leaves are evaluated exactly with the node itself
    excluded.
    """
    n = len(pos)
    forces = np.zeros_like(pos)
    if n < 2:
        return forces
    tree = RefQuadTree(pos, mass)

    nodes = np.arange(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    while len(nodes):
        p = pos[nodes]
        com = tree.com[cells]
        diff = p - com
        dist = np.sqrt((diff**2).sum(axis=1))
        np.maximum(dist, _EPS_DIST, out=dist)

        leaf = tree.is_leaf[cells]
        far = (dist * theta > tree.size[cells]) & ~leaf

        if far.any():
            idx = nodes[far]
            factor = kr * mass[idx] * tree.mass[cells[far]] / (dist[far] ** 2)
            np.add.at(forces, idx, diff[far] * factor[:, None])

        if leaf.any():
            li = nodes[leaf]
            lc = cells[leaf]
            counts = tree.leaf_count[lc]
            src = np.repeat(li, counts)
            tgt = tree.leaf_points[ref_segments(tree.leaf_start[lc], counts)]
            keep = src != tgt
            src, tgt = src[keep], tgt[keep]
            pd = pos[src] - pos[tgt]
            d = np.sqrt((pd**2).sum(axis=1))
            np.maximum(d, _EPS_DIST, out=d)
            factor = kr * mass[src] * mass[tgt] / (d * d)
            np.add.at(forces, src, pd * factor[:, None])

        descend = ~far & ~leaf
        if descend.any():
            kids = tree.children[cells[descend]]
            nodes = np.repeat(nodes[descend], 4)
            cells = kids.reshape(-1)
            keep = cells >= 0
            nodes, cells = nodes[keep], cells[keep]
        else:
            break
    return forces


def ref_compute_forces(
    pos: np.ndarray, arrays, config, barnes_hut: bool
) -> np.ndarray:
    if barnes_hut:
        forces = ref_bh_repulsion(pos, arrays.mass, config.scaling_kr, config.theta)
    else:
        forces = ref_exact_repulsion(pos, arrays.mass, config.scaling_kr)

    if config.gravity_kg > 0:
        dist = np.sqrt((pos**2).sum(axis=1))
        np.maximum(dist, _EPS_DIST, out=dist)
        forces -= pos / dist[:, None] * (config.gravity_kg * arrays.mass)[:, None]

    if len(arrays.edge_u):
        delta = pos[arrays.edge_u] - pos[arrays.edge_v]
        pull = delta * arrays.edge_f[:, None]
        np.add.at(forces, arrays.edge_u, -pull)
        np.add.at(forces, arrays.edge_v, pull)
    return forces


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def positions_of(frame, arrays):
    return np.array([frame.positions[h] for h in arrays.nodes], dtype=np.float64)


def coincident_frame(graph, stacked):
    """Initial frame with the first ``stacked`` nodes on one point, so the
    quadtree reaches ``_MAX_TREE_DEPTH`` and builds a multi-point leaf."""
    frame = init_layout(graph, 4)
    nodes = sorted(frame.positions)
    positions = dict(frame.positions)
    for h in nodes[:stacked]:
        positions[h] = positions[nodes[0]]
    positions[nodes[stacked]] = (positions[nodes[0]][0] + 1e-13, positions[nodes[0]][1])
    return LayoutFrame(positions=positions)


def kernel_cases():
    """(graph, frame) pairs: initial frames, frames after a few steps,
    the smallest graphs, a coincident stack among other points and a
    graph whose points all coincide."""
    single = InteractionGraph({}, extra_nodes=[Handle("only")])
    yield single, init_layout(single, 1)
    pair = random_connected_graph(2, 0, seed=1)
    yield pair, init_layout(pair, 2)
    for n, seed in ((60, 3), (300, 4)):
        graph = random_connected_graph(n, 2 * n, seed=seed)
        yield graph, init_layout(graph, seed)
        yield graph, run_layout(graph, LayoutConfig(iterations=4, seed=seed, barnes_hut=True))
        yield graph, run_layout(graph, LayoutConfig(iterations=4, seed=seed, barnes_hut=False))
    graph = random_connected_graph(40, 60, seed=5)
    yield graph, coincident_frame(graph, 6)
    handles = [Handle(f"c{i}") for i in range(8)]
    yield (InteractionGraph({}, extra_nodes=handles),
           LayoutFrame(positions={h: (1.0, 1.0) for h in handles}))


def positions_array(frame):
    return np.array([frame.positions[h] for h in sorted(frame.positions)])


class TestInitLayout:
    def test_same_seed_bit_identical(self):
        g = random_connected_graph(20, 10, seed=1)
        assert init_layout(g, 7).positions == init_layout(g, 7).positions

    def test_different_seed_differs(self):
        g = random_connected_graph(20, 10, seed=1)
        assert init_layout(g, 7).positions != init_layout(g, 8).positions

    def test_empty_graph(self):
        frame = init_layout(InteractionGraph({}), 3)
        assert frame.positions == {}

    def test_single_node(self):
        g = InteractionGraph({}, extra_nodes=[Handle("only")])
        frame = init_layout(g, 3)
        assert set(frame.positions) == {Handle("only")}


class TestFa2Step:
    def test_isolated_pair_repels_monotonically(self):
        g = InteractionGraph({}, extra_nodes=[Handle("a"), Handle("b")])
        config = LayoutConfig(gravity_kg=0.0, seed=3)
        frame = init_layout(g, 3)

        def gap(fr):
            pa = np.array(fr.positions[Handle("a")])
            pb = np.array(fr.positions[Handle("b")])
            return float(np.linalg.norm(pa - pb))

        previous = gap(frame)
        for _ in range(10):
            frame = fa2_step(g, frame, config)
            current = gap(frame)
            assert current > previous
            previous = current

    def test_k2_mirror_symmetry_preserved(self):
        g = pairs_graph([("a", "b")])
        frame = LayoutFrame(positions={Handle("a"): (0.7, -0.3), Handle("b"): (-0.7, 0.3)})
        config = LayoutConfig(seed=0)
        for _ in range(300):
            frame = fa2_step(g, frame, config)
            ax, ay = frame.positions[Handle("a")]
            bx, by = frame.positions[Handle("b")]
            assert (ax, ay) == (-bx, -by)

    def test_missing_position_rejected(self):
        g = pairs_graph([("a", "b")])
        with pytest.raises(ValueError):
            fa2_step(g, LayoutFrame(positions={Handle("a"): (0.0, 0.0)}), LayoutConfig())

    def test_iteration_counter_advances(self):
        g = pairs_graph([("a", "b")])
        frame = init_layout(g, 1)
        stepped = fa2_step(g, frame, LayoutConfig())
        assert stepped.iteration == 1


class TestBarnesHut:
    def test_tiny_theta_matches_exact(self):
        g = random_connected_graph(40, 50, seed=5)
        frame = init_layout(g, 11)
        exact = repulsion_forces(g, frame, LayoutConfig(), barnes_hut=False)
        approx = repulsion_forces(g, frame, LayoutConfig(theta=1e-3), barnes_hut=True)
        for handle in exact:
            assert np.allclose(exact[handle], approx[handle], atol=1e-9)

    def test_error_shrinks_with_theta(self):
        g = random_connected_graph(60, 80, seed=6)
        frame = init_layout(g, 12)
        exact = repulsion_forces(g, frame, LayoutConfig(), barnes_hut=False)
        field = np.linalg.norm(positions_like(exact))

        def field_error(theta):
            approx = repulsion_forces(g, frame, LayoutConfig(theta=theta), barnes_hut=True)
            delta = positions_like(approx) - positions_like(exact)
            return np.linalg.norm(delta) / field

        assert field_error(0.3) < field_error(0.8) < field_error(1.6)

    def test_five_percent_on_far_field_instance(self):
        g, frame = dyads_layout_instance(seed=0)
        exact = repulsion_forces(g, frame, LayoutConfig(), barnes_hut=False)
        approx = repulsion_forces(g, frame, LayoutConfig(theta=1.2), barnes_hut=True)
        for handle in exact:
            err = np.linalg.norm(np.array(approx[handle]) - np.array(exact[handle]))
            assert err / np.linalg.norm(exact[handle]) <= 0.05

    def test_coincident_points_stay_finite(self):
        handles = [Handle(f"c{i}") for i in range(8)]
        g = InteractionGraph({}, extra_nodes=handles)
        frame = LayoutFrame(positions={h: (1.0, 1.0) for h in handles})
        config = LayoutConfig(barnes_hut=True, seed=0)
        for _ in range(50):
            frame = fa2_step(g, frame, config)
        coords = positions_array(frame)
        assert np.isfinite(coords).all()


def positions_like(mapping):
    return np.array([mapping[h] for h in sorted(mapping)])


class TestRunLayout:
    def test_zero_iterations_is_identity(self):
        g = random_connected_graph(15, 10, seed=2)
        init = init_layout(g, 9)
        out = run_layout(g, LayoutConfig(iterations=0, seed=9))
        assert out.positions == init.positions

    def test_deterministic_replay(self):
        g = random_connected_graph(40, 60, seed=3)
        config = LayoutConfig(iterations=80, seed=21)
        assert run_layout(g, config).positions == run_layout(g, config).positions

    def test_matches_stepwise_composition(self):
        g = random_connected_graph(12, 8, seed=4)
        for barnes_hut in (None, True):
            config = LayoutConfig(iterations=7, seed=5, barnes_hut=barnes_hut)
            frame = init_layout(g, 5)
            for _ in range(7):
                frame = fa2_step(g, frame, config)
            assert frame.positions == run_layout(g, config).positions

    def test_two_triangles_cluster(self):
        g = two_triangle_graph()
        frame = run_layout(g, LayoutConfig(iterations=600, seed=13))
        tri_a = [frame.positions[Handle(h)] for h in ("a1", "a2", "a3")]
        tri_b = [frame.positions[Handle(h)] for h in ("b1", "b2", "b3")]

        def mean_pairwise(points_a, points_b=None):
            pts_b = points_b if points_b is not None else points_a
            dists = [
                math.dist(p, q)
                for i, p in enumerate(points_a)
                for j, q in enumerate(pts_b)
                if points_b is not None or j > i
            ]
            return sum(dists) / len(dists)

        intra = (mean_pairwise(tri_a) + mean_pairwise(tri_b)) / 2
        inter = mean_pairwise(tri_a, tri_b)
        assert intra < inter

    def test_no_nan_with_gravity_off_and_disconnected(self):
        g = InteractionGraph({}, extra_nodes=[Handle(f"n{i}") for i in range(30)])
        frame = run_layout(g, LayoutConfig(iterations=500, gravity_kg=0.0, seed=1))
        assert np.isfinite(positions_array(frame)).all()

    def test_centroid_bounded_with_gravity(self):
        g = random_connected_graph(50, 70, seed=8)
        frame = run_layout(g, LayoutConfig(iterations=1500, seed=2))
        coords = positions_array(frame)
        centroid = coords.mean(axis=0)
        extent = np.abs(coords).max()
        assert np.linalg.norm(centroid) < max(extent, 1.0)
        assert np.isfinite(coords).all()


class TestLayoutConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayoutConfig(scaling_kr=0)
        with pytest.raises(ValueError):
            LayoutConfig(gravity_kg=-1)
        with pytest.raises(ValueError):
            LayoutConfig(theta=0)
        with pytest.raises(ValueError):
            LayoutConfig(iterations=-1)

    def test_barnes_hut_auto_threshold(self):
        assert not LayoutConfig().use_barnes_hut(1000)
        assert LayoutConfig().use_barnes_hut(1001)
        assert LayoutConfig(barnes_hut=True).use_barnes_hut(2)
        assert not LayoutConfig(barnes_hut=False).use_barnes_hut(5000)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("barnes_hut", [False, True])
    @pytest.mark.parametrize("gravity_kg", [0.0, 1.0])
    @pytest.mark.parametrize("edge_weight_influence", [0.0, 0.5, 1.0])
    def test_forces_bit_identical(self, barnes_hut, gravity_kg, edge_weight_influence):
        config = LayoutConfig(
            gravity_kg=gravity_kg, edge_weight_influence=edge_weight_influence
        )
        for graph, frame in kernel_cases():
            arrays = _Arrays(undirected_view(graph), edge_weight_influence)
            pos = positions_of(frame, arrays)
            expected = ref_compute_forces(pos, arrays, config, barnes_hut)
            assert same_bits(_compute_forces(pos, arrays, config, barnes_hut), expected)

    def test_coincident_case_builds_a_multi_point_leaf(self):
        graph = random_connected_graph(40, 60, seed=5)
        arrays = _Arrays(undirected_view(graph), 1.0)
        pos = positions_of(coincident_frame(graph, 6), arrays)
        tree = _QuadTree(pos[:, 0].copy(), pos[:, 1].copy(), arrays.mass)
        assert tree.point_count[tree.child_count == 0].max() == 6

    def test_exact_across_a_chunk_boundary(self):
        graph = random_connected_graph(3000, 3000, seed=6)
        assert _BLOCK // 3000 < 3000  # the exact kernel splits its rows
        arrays = _Arrays(undirected_view(graph), 1.0)
        pos = positions_of(init_layout(graph, 6), arrays)
        config = LayoutConfig()
        expected = ref_compute_forces(pos, arrays, config, False)
        assert same_bits(_compute_forces(pos, arrays, config, False), expected)

    def test_exact_without_a_one_column_block(self):
        # fixed 66-wide blocks would leave a last block of one column,
        # which numpy would sum pairwise instead of in source order
        graph = random_connected_graph(991, 991, seed=7)
        assert 991 % (_BLOCK // 991) == 1
        arrays = _Arrays(undirected_view(graph), 1.0)
        pos = positions_of(init_layout(graph, 7), arrays)
        config = LayoutConfig()
        expected = ref_compute_forces(pos, arrays, config, False)
        assert same_bits(_compute_forces(pos, arrays, config, False), expected)
