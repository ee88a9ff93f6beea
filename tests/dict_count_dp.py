"""Reference count DP for the packed transfer matrix in ggkit.partitions.

The same size-by-size walk over the same steps and states, but each live
state holds a plain {(m, n): count} dict and every entry is moved one at a
time.  It has the signature and return shape of `partitions._count_tables`,
so a test can monkeypatch it in and run the public sweeps through it.
"""


def dict_count_tables(n_max: int, step, start, overlines: bool = True,
                      groups=lambda state: ("*",)) -> dict:
    live = {start: {(0, 0): 1}}
    for s in range(1, n_max + 2):
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
                            key = (m + c, w + s * c)
                            dst[key] = dst.get(key, 0) + cnt
        live = nxt
    out: dict = {}
    for state, table in live.items():
        for g in groups(state):
            merged = out.setdefault(g, {})
            for key, cnt in table.items():
                merged[key] = merged.get(key, 0) + cnt
    return out
