"""Each workload's inputs, derived from the seed alone.

Imports nothing, so the set-up timing in run.py sees only the cost of
importing socprimes and building these inputs.

The seed shifts the window_1e9 and legs_1e8 windows by a multiple of a
small step (seed mod SHIFTS): different seeds give different inputs of
nearly the same cost, and seed 0 is the reference window.  tally_1e6 and
fp_hist_3e4 are the paper's published figures and do not move, and
neither do the self-test's tiny ranges.
"""

NAMES = ("tally_1e6", "window_1e9", "legs_1e8", "fp_hist_3e4")

#: Number of distinct shifted windows; make_reference.py stores each one.
SHIFTS = 16

#: Search ranges of the self-test's tiny workloads, the same for every seed.
TINY_RANGES = {"tally_1e6": (7, 10**4), "window_1e9": (10**5 - 2**12, 10**5), "legs_1e8": (10**5, 10**5 + 2**14)}


def workload_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """Range and engine settings (or histogram limit) of one workload.

    tiny shrinks every workload to milliseconds for the self-test.
    segment_size None means the package default.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    if name == "fp_hist_3e4":
        return {"limit": 2000 if tiny else 30000}
    s = seed % SHIFTS
    if tiny:
        lo, hi = TINY_RANGES[name]
    elif name == "tally_1e6":
        lo, hi = 7, 10**6
    elif name == "window_1e9":
        lo, hi = 10**9 - 2**18 - s * 2**10, 10**9 - s * 2**10
    else:
        lo, hi = 10**8 + s * 2**12, 10**8 + 2**20 + s * 2**12
    if name == "legs_1e8":
        return {"lo": lo, "hi": hi, "threads": 2, "stop_after": 4, "segment_size": 2**10 if tiny else None}
    return {"lo": lo, "hi": hi, "threads": 1, "stop_after": None, "segment_size": None}
