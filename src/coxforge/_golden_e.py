"""The reference invariant tables of E6, E7 and E8, which no closed
formula gives. Only the E branches of invariants.golden_generators and
invariants.golden_relations import this module, so an A or D run never
compiles it.

GENERATORS maps n to the generators of E_n, each one name and its
exponents by variable name; RELATIONS maps n to the toric relations
between them, each a pair of exponent dicts over the generator names.
"""

GENERATORS = {
    # Z3 carries the cube of the long-branch section x5 and Z4 the cube
    # of the short-branch section x3; swapping the two x-parts breaks
    # the degree-zero condition.
    6: {
        "Z1": {"x1": 1, "y0": 3, "y1": 2, "y2": 2, "y3": 1, "y4": 2, "y5": 1},
        "Z2": {"x3": 1, "x5": 1, "y0": 4, "y1": 2, "y2": 3, "y3": 2, "y4": 3, "y5": 2},
        "Z3": {"x5": 3, "y0": 6, "y1": 3, "y2": 4, "y3": 2, "y4": 5, "y5": 4},
        "Z4": {"x3": 3, "y0": 6, "y1": 3, "y2": 5, "y3": 4, "y4": 4, "y5": 2},
    },
    7: {
        "Z1": {"x3": 1, "y0": 4, "y1": 2, "y2": 3, "y3": 2, "y4": 3, "y5": 2, "y6": 1},
        "Z2": {"x1": 2, "y0": 12, "y1": 7, "y2": 8, "y3": 4, "y4": 9, "y5": 6, "y6": 3},
        "Z3": {"x1": 1, "x6": 1, "y0": 9, "y1": 5, "y2": 6, "y3": 3, "y4": 7, "y5": 5, "y6": 3},
        "Z4": {"x6": 2, "y0": 6, "y1": 3, "y2": 4, "y3": 2, "y4": 5, "y5": 4, "y6": 3},
    },
    8: {
        "Z1": {"x1": 1, "y0": 15, "y1": 8, "y2": 10, "y3": 5, "y4": 12, "y5": 9, "y6": 6, "y7": 3},
        "Z2": {"x7": 1, "y0": 6, "y1": 3, "y2": 4, "y3": 2, "y4": 5, "y5": 4, "y6": 3, "y7": 2},
        "Z3": {"x3": 1, "y0": 10, "y1": 5, "y2": 7, "y3": 4, "y4": 8, "y5": 6, "y6": 4, "y7": 2},
    },
}

RELATIONS = {
    6: [({"Z2": 3}, {"Z3": 1, "Z4": 1})],
    # the unique quadric couples the mixed generator Z3 with the two
    # pure-section generators Z2 and Z4; pairing Z2 with itself instead
    # fails the exponent count on x1
    7: [({"Z3": 2}, {"Z2": 1, "Z4": 1})],
    # the degree-zero monoid of E8 is free
    8: [],
}
