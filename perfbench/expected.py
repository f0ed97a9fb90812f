"""Expected outputs of every benchmark query.

Two kinds of reference live here and are kept apart:

HAND-WRITTEN values are stated independently of the code: the criterion-02
Dong reference table exactly as written, the criterion-9 closure verdicts and
the ``selfcheck`` dimension table.  A mismatch against them is a wrong answer
or an open question about the reference.

FROZEN values have no independent reference.  They were recorded by running
the quadop source at commit 1288550 and guard against change, not against
error: a refactor must reproduce them exactly.
"""

# -- HAND-WRITTEN --------------------------------------------------------

# Criterion 02, exactly as written.  The reference places dual(NP) among the
# non-Dong entries while quadop computes Dong; the entry is compared as
# written, so it fails on every pass until the discrepancy is settled.
DONG_TABLE = {
    "Com": "Dong", "Lie": "Dong", "As": "Dong", "Pois": "Dong",
    "Nov": "Dong", "NP": "Dong", "Alt": "Dong", "Perm": "Dong",
    "Leib": "Dong", "diAs": "Dong", "diNov": "Dong",
    "dual(GD)": "Dong", "ComTriAs": "Dong",
    "Zinb": "NotDong", "preLie": "NotDong", "preAs": "NotDong",
    "dual(NP)": "NotDong", "GD": "NotDong", "postLie": "NotDong",
}

# The open reference discrepancy above: query label and the exact problem its
# check reports.  That failure still counts as a failed query; it only does
# not make a run incorrect.  Any other problem on the same query does.
OPEN_DISCREPANCIES = {"dong dual(NP)": "verdict Dong, expected NotDong"}

# (generators, relations, dim P(3)) of every catalog entry, as in `selfcheck`.
SELFCHECK_DIMS = {
    "Com": (1, 2, 1), "Lie": (1, 1, 2), "As": (2, 6, 6), "Pois": (2, 6, 6),
    "Nov": (2, 6, 6), "NP": (3, 16, 11), "GD": (3, 10, 17), "Alt": (2, 5, 7),
    "Perm": (2, 9, 3), "Zinb": (2, 6, 6), "Leib": (2, 6, 6), "preLie": (2, 3, 9),
    "diAs": (4, 30, 18), "preAs": (4, 18, 30), "diNov": (4, 30, 18),
    "postLie": (3, 7, 20), "ComTriAs": (3, 20, 7),
}

# Criterion 9: black products of the core operads and their di/tri
# replications are Dong; pre/post splittings of the textual entries are not.
CLOSURE_CORE = ("Com", "Lie", "As", "Nov", "Pois")
SPLIT_BASES = ("Alt", "As", "Com", "GD", "Lie", "NP", "Nov", "Perm", "Pois", "Zinb")
CLOSURE_VERDICT = {"black": "Dong", "di": "Dong", "tri": "Dong",
                   "pre": "NotDong", "post": "NotDong"}

# -- FROZEN --------------------------------------------------------------

# FROZEN.  wide_products: dims of each white product W and its dual, the Dong
# verdict and kernel dimension of W, and the first 16 hex digits of the
# SHA-256 of the printed canonical relations ("\n".join(show_relations())).
FROZEN_WIDE = {
    "d16": {
        "white": {"gen": 16, "free3": 768, "relations": 444, "p3": 324,
                  "digest": "9d15d23b67aeb3b1"},
        "dual": {"gen": 16, "free3": 768, "relations": 324, "p3": 444,
                 "digest": "a96064dee5c113ea"},
        "dong": {"verdict": "NotDong", "kernel_dim": 72},
    },
    "d24": {
        "white": {"gen": 24, "free3": 1728, "relations": 972, "p3": 756,
                  "digest": "022e8b71853fcfbd"},
        "dual": {"gen": 24, "free3": 1728, "relations": 756, "p3": 972,
                 "digest": "d1677921d7e5f2fa"},
        "dong": {"verdict": "NotDong", "kernel_dim": 168},
    },
}

# FROZEN.  locality_sweep: minimal locality order of every (inner, outer)
# operation pair at k=0, anchor (0,0), Nmax 4, in row-major pair order, with
# "-" for "none found in window".  The orders are the same at window 6 and 8.
FROZEN_LOCALITY = {
    "Com": "1",
    "Lie": "2",
    "As": "1111",
    "Pois": "1112",
    "Nov": "1111",
    "NP": "111111111",
    "Alt": "2222",
    "Perm": "1111",
    "Leib": "2222",
    "diAs": "1111111111111111",
    "diNov": "1111111111111111",
    "dual(GD)": "111111111",
    "ComTriAs": "111111111",
    "Zinb": "1-1-",
    "preLie": "-2-2",
    "preAs": "--11--11--11--11",
    "dual(NP)": "222211211",
    "GD": "11-11--22",
    "postLie": "-22-22-22",
}
