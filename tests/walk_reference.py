"""Reference closed walks through a strongly connected component.

These are the walks ``verify`` used for refutation loops before every
witness path came from its one breadth-first search, ``_bfs_path``.
``_walk_within`` is a second breadth-first search that returns a
nonempty path, so with source equal to target it finds a cycle.  The
tests hold the package's ``_closed_walk`` to this one: the same walk for
every component, entry and anchor batch.
"""

from collections import deque


def _walk_within(succ, region, source, target):
    """A nonempty path source -> target inside ``region``; with source equal
    to target this is a cycle."""
    parent = {source: None}
    queue = deque([source])
    while queue:
        n = queue.popleft()
        for w in succ.get(n, ()):
            if w not in region:
                continue
            if w == target:
                path = [w, n]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            if w not in parent:
                parent[w] = n
                queue.append(w)
    raise AssertionError("strongly connected component is not connected")


def closed_walk(succ, comp, entry, anchors=()):
    """Closed walk entry -> entry inside the component, visiting every
    anchor; returned without the final repetition of the entry."""
    walk = [entry]
    cur = entry
    for a in anchors:
        if a == cur:
            continue
        seg = _walk_within(succ, comp, cur, a)
        walk.extend(seg[1:])
        cur = a
    seg = _walk_within(succ, comp, cur, entry)
    walk.extend(seg[1:])
    return walk[:-1]
