"""Reference count DPs for the packed transfer matrix in ggkit.partitions.

`dict_count_tables` is the same size-by-size walk over the same steps and
states, top-down from n_max + 1 to 1, but each live state holds a plain
{(m, n): count} dict (with by_weight, {(0, n): count}) and every entry is
moved one at a time.  It has the
signature and return shape of `partitions._count_tables`, so a test can
monkeypatch it in and run the public sweeps through it.

The `bottom_up_*` sweeps are a frozen copy of the route the sweeps took before
they walked top-down: sizes from 1 up to n_max + 1, one run per (family, k, i),
each step capping the first window by i - 1 as it meets it.  They share no step
with ggkit, so they check the top-down steps and the i-groups that split one
run per (family, k) into its tables.
"""


def dict_count_tables(n_max: int, step, start, overlines: bool = True,
                      groups=lambda state: ("*",), bottom_up: bool = False,
                      by_weight: bool = False) -> dict:
    # by_weight keeps no part count: every entry is (0, n), listed by n at the end
    per_part = 0 if by_weight else 1
    live = {start: {(0, 0): 1}}
    for s in (range(1, n_max + 2) if bottom_up else range(n_max + 1, 0, -1)):
        nxt: dict = {}
        for state, table in live.items():
            for o in ((0, 1) if overlines else (0,)):
                for f in range(n_max // s - o + 1):
                    new = step(state, s, o, f)
                    if new is None:
                        break
                    c = o + f
                    room = n_max - s * c
                    dst = nxt.setdefault(new, {})
                    for (m, w), cnt in table.items():
                        if w <= room:
                            key = (m + c * per_part, w + s * c)
                            dst[key] = dst.get(key, 0) + cnt
        live = nxt
    out: dict = {}
    for state, table in live.items():
        for g in groups(state):
            merged = out.setdefault(g, {})
            for key, cnt in table.items():
                merged[key] = merged.get(key, 0) + cnt
    if by_weight:
        return {g: [merged.get((0, n), 0) for n in range(n_max + 1)] for g, merged in out.items()}
    return out


# -- the bottom-up route, one run per (family, k, i), frozen ------------------

def _bottom_up(n_max, step, start, overlines=True, groups=lambda state: ("*",)):
    return dict_count_tables(n_max, step, start, overlines, groups, bottom_up=True)


def _window_step(k: int, i: int, odd_add):
    """Bound the window (2t, 2t+1, 2t+2) by k-1, or by i-1 at t = 0 (fbar(1) + f(2)
    for O, f(1) + f(2) for C); `odd_add(o, f)` is what its odd size adds."""

    def step(win, s, o, f):
        cap = i - 1 if s <= 2 else k - 1
        if s % 2:
            win += odd_add(o, f)
            return win if win <= cap else None
        return o + f if win + f <= cap else None

    return step


def _o_step(k: int, i: int):
    """O family; state (window, plain odd below, smallest-part kind 0/F=1/H=2)."""
    window = _window_step(k, i, lambda o, f: o)

    def step(state, s, o, f):
        win, odd_below, kind = state
        if odd_below and f > k - 2:
            return None
        win = window(win, s, o, f)
        if win is None:
            return None
        if not kind and o + f:
            # F takes overlined-odd / plain-even smallest parts
            kind = 1 if (o == 1) == (s % 2 == 1) else 2
        return (win, bool(s % 2 and f), kind)

    return step


_OFH_GROUPS = (("O",), ("O", "F"), ("O", "H"))


def bottom_up_ofh_tables(n_max: int, pairs) -> dict:
    tables = {}
    for (k, i) in sorted(set(pairs)):
        by_family = _bottom_up(n_max, _o_step(k, i), (0, False, 0),
                               groups=lambda st: _OFH_GROUPS[st[2]])
        for fam in "OFH":
            tables[(fam, k, i)] = by_family.get(fam, {})
    return tables


def bottom_up_p_counts(n_max: int, pairs) -> dict:
    counts = {}
    for (k, i) in sorted(set(pairs)):
        mod = 2 * k - 1 if i == k else 4 * k - 2
        bad = {0} if i == k else {0, (2 * i - 1) % mod, (mod - (2 * i - 1)) % mod}
        step = lambda st, s, o, f: None if (f or (o and i == k)) and s % mod in bad else st
        by_n = [0] * (n_max + 1)
        for (_, n), c in _bottom_up(n_max, step, ())["*"].items():
            by_n[n] += c
        counts[(k, i)] = by_n
    return counts


def bottom_up_family_tables(n_max: int, pairs, families: str = "BCAD") -> dict:
    tables = {}
    for (k, i) in sorted(set(pairs)):
        amod, dmod = 2 * k + 1, 4 * k
        abad = {0, i % amod, (amod - i) % amod}
        dbad = {0, (2 * i - 1) % dmod, (dmod - (2 * i - 1)) % dmod}
        c_window = _window_step(k, i, lambda o, f: f)
        steps = {
            "B": (lambda prev, s, o, f: None if prev + f > (i - 1 if s == 1 else k - 1) else f, 0),
            "C": (lambda win, s, o, f: None if s % 2 and f > 1 else c_window(win, s, o, f), 0),
            "A": (lambda st, s, o, f: None if f and s % amod in abad else st, ()),
            "D": (lambda st, s, o, f: None if f and (s % 4 == 2 or s % dmod in dbad) else st, ()),
        }
        for fam in families:
            step, start = steps[fam]
            tables[(fam, k, i)] = _bottom_up(n_max, step, start, overlines=False)["*"]
    return tables
