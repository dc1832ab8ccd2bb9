"""Quarter turns about z as vertex permutations of a Healpix grid, for the equivariance tests."""

import numpy as np


def z_rotation_permutation(grid, quarter_turns: int) -> np.ndarray:
    """Vertex permutation realizing a rotation about z by quarter_turns*90 degrees.

    Returns pi such that R_z(quarter_turns*90deg) @ vertices[pi[i]] equals
    vertices[i]. Each rotated vertex must have a vertex within 1e-9 and the
    map must be a bijection.
    """
    k = int(quarter_turns) % 4
    if k == 0:
        return np.arange(grid.n_vertices, dtype=np.int64)
    ang = -k * np.pi / 2.0
    ca, sa = np.cos(ang), np.sin(ang)
    rot_inv = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    targets = grid.vertices @ rot_inv.T
    # on unit vectors the nearest vertex is the one with the largest dot
    # product; 256 targets at a time bound the (chunk, n) product matrix
    perm = np.concatenate([
        np.argmax(targets[lo : lo + 256] @ grid.vertices.T, axis=1)
        for lo in range(0, grid.n_vertices, 256)
    ])
    dist = np.linalg.norm(targets - grid.vertices[perm], axis=1)
    assert dist.max() <= 1e-9, f"no matching vertex within 1e-9 (max distance {dist.max():.3e})"
    assert np.unique(perm).size == grid.n_vertices, "quarter-turn map is not a bijection"
    return perm.astype(np.int64)
