"""Named example systems used by tests, demos, and golden counts.

Planar systems are listed with subscripts in increasing angle order (angle
of the line, not of its normal), which is the convention the class labels
in the planar catalogs assume.  A line with slope s gets normal (-s, 1);
vertical lines get (1, 0).
"""

from .normal_system import validate


def three_lines():
    """Generic triangle: slopes 0, 1, vertical."""
    return validate([(0, 1), (-1, 1), (1, 0)], 2)


def four_lines():
    """Four lines at 0, 45, 90, 135 degrees."""
    return validate([(0, 1), (1, -1), (1, 0), (1, 1)], 2)


def five_lines():
    """Five lines in increasing angle order, no two parallel."""
    return validate([(0, 1), (1, -2), (1, -1), (2, -1), (1, 0)], 2)


def six_lines_perpendicular_pairs():
    """Six lines with two perpendicular slope pairs; 884 cones.

    Slopes 0, -2/3, -3/2, vertical, 3/2, 2/3: lines 2 and 5 are
    perpendicular, as are 3 and 6, so two altitude triples concur and the
    system is not concurrency free.
    """
    return validate([(1, 0), (2, 3), (3, 2), (0, 1), (3, -2), (2, -3)], 2)


B_PERPENDICULAR = (0, -2, 3, 0, 5, 5)


def six_lines_mixed_slopes():
    """Slopes 0, -1, -2, vertical, 1, 1/2; 888 cones.

    Breaks the perpendicularity of the previous system but keeps one
    reciprocal coincidence, landing between 884 and the free count 892.
    """
    return validate([(0, 1), (1, 1), (2, 1), (1, 0), (-1, 1), (-1, 2)], 2)


def six_lines_distinct_slopes():
    """Slopes 0, 1, 2, 3, 4, 5: distinct slopes yet NOT concurrency free.

    A cautionary example: no two lines are parallel and no slopes are
    reciprocal, but the arithmetic progression still hides a rank drop
    (witness {123, 145, 246, 356}).  Genericity needs more than distinct
    slopes.
    """
    return validate([(0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1), (-5, 1)], 2)


def six_lines_free():
    """A concurrency-free system of six lines (randomly found, verified)."""
    return validate([(3, 4), (-8, -1), (7, 6), (3, 0), (6, 2), (9, -3)], 2)


def six_planes_chain():
    """Three coordinate planes plus three general ones; 132 cones.

    The three general planes and the coordinate planes hide a rank drop
    among concurrency conditions, so the system is not concurrency free.
    """
    return validate([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                     (2, 2, 1), (2, 3, 2), (1, 2, 2)], 3)


def six_planes_curve():
    """Coordinate planes plus three moment-curve normals; NOT free.

    Another near miss: every three rows are independent, yet the witness
    {1234, 1256, 3456} has dependent concurrency conditions.
    """
    return validate([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                     (1, 1, 1), (1, 2, 3), (1, 4, 9)], 3)


def six_planes_free():
    """A concurrency-free system of six planes (randomly found, verified)."""
    return validate([(3, 4, -8), (-1, 7, 6), (3, 0, 6),
                     (2, 9, -3), (7, -5, 0), (-5, -6, -1)], 3)
