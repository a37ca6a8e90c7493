"""Bespoke ambient constraint checks for the T*S^1 factors (no orthant lift).

`orbit.decide` never calls them: the normals of C^2 x T*S^1 and
T*S^1 x S^2 do not span, and these predicates write their constraint
systems by hand.  They stay here as references for an engine solver.
"""

from delzant import lattice
from delzant.lattice import ZERO
from delzant.polytope import as_point


def h1_pass_c2_x_ts1(x, y, M) -> bool:
    """The obstruction system on H_1 for C^2 x T*S^1 fibre maps x -> y.

    Last row (0, 0, 1) (identity on H_1 of the ambient space), permutation
    of distinguished classes, Maslov column sums, and the area/Liouville
    rows evaluated at the two base points.
    """
    x, y = as_point(x), as_point(y)
    M = tuple(map(tuple, M))
    if M[2] != (0, 0, 1):
        return False
    if lattice.mat_det(M) not in (1, -1):
        return False
    dist_x = {i for i in (0, 1) if x[i] == min(x[0], x[1])}
    dist_y = {i for i in (0, 1) if y[i] == min(y[0], y[1])}
    cols = lattice.transpose(M)
    images = set()
    for i in dist_x:
        col = cols[i][:2]
        ones = [j for j, c in enumerate(col) if c]
        if len(ones) != 1 or col[ones[0]] != 1 or ones[0] not in dist_y:
            return False
        if cols[i][2] != 0:
            return False
        images.add(ones[0])
    if images != dist_y:
        return False
    # Maslov: the two disk classes have index two, the Liouville circle zero.
    if sum(cols[0][:2]) != 1 or sum(cols[1][:2]) != 1 or sum(cols[2][:2]) != 0:
        return False
    # area of the j-th coordinate circle, measured with the primitive
    for j in range(3):
        total = ZERO
        for i in range(2):
            total = total + y[i] * M[i][j]
        if j == 2:
            total = total + y[2]
        if total != x[j]:
            return False
    return True


def h1_pass_ts1_x_s2(x, y, M2, bound: int = 5) -> bool:
    """Obstruction for T*S^1 x S^2 via the lift to C^2 x T*S^1.

    A 2x2 matrix passes iff it descends from a 3x3 matrix passing the
    constraints upstairs at the lifted points (slice x1 + x2 = 2; shear
    parameters searched within the bound).
    """
    x, y = as_point(x), as_point(y)
    M2 = tuple(map(tuple, M2))
    xi = ((0, 0, 1), (-1, 1, 0))  # quotient map of the circle lattices
    lift_x = (1 - x[1], 1 + x[1], x[0])
    lift_y = (1 - y[1], 1 + y[1], y[0])
    blocks = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    target = lattice.mat_mul(M2, xi)
    for block in blocks:
        for b1 in range(-bound, bound + 1):
            M3 = (
                (block[0][0], block[0][1], b1),
                (block[1][0], block[1][1], -b1),
                (0, 0, 1),
            )
            if lattice.mat_mul(xi, M3) != target:
                continue
            if h1_pass_c2_x_ts1(lift_x, lift_y, M3):
                return True
    return False
