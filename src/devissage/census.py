"""The cover census's search: labelled tables of descent tuples, scanned
on an explicit stack.

``covers`` builds descent tuples and counts them from what ``_scan``
yields.  The search lives apart from that tuple API, which reads only the
tables the scan yields and none of its index tables or trail.
"""

from __future__ import annotations

from .configuration import Configuration, DisconnectedError, is_connected

__all__: list[str] = []


class _Structure:
    """Index tables for the scan: fibers in a fixed order, generator slots,
    relator paths and edge constraints rewritten over slot numbers, and for
    every move the check its new entry can fail.

    All letter paths are stored reversed so that pointwise tracing (first
    path entry applied first) realizes the left action.  A check is
    ``(fiber, relator paths, edges)`` or None when nothing can fail: a
    generator entry can only break the relators through its slot and the
    equivariance of the incident edges whose psi or phi paths read that
    slot; a gluing entry can only break its own edge's equivariance, and
    not even that when every edge generator maps to the identity on both
    sides.  A disconnected configuration raises ``DisconnectedError``; one
    instance serves the scans of every degree."""

    def __init__(self, cfg: Configuration):
        if not is_connected(cfg):
            raise DisconnectedError("tuple census requires a connected configuration")
        comps = sorted(cfg.components, key=lambda c: c.id)
        sings = sorted(cfg.singulars, key=lambda s: s.id)
        self.fiber_names = [("c", c.id) for c in comps] + [("s", s.id) for s in sings]
        fiber_of = {name: i for i, name in enumerate(self.fiber_names)}
        groups = [c.group for c in comps] + [s.group for s in sings]
        self.gen_ids = [g.generators for g in groups]
        slot_of = [{g: i for i, g in enumerate(gens)} for gens in self.gen_ids]
        rel_by_slot: list[dict[int, list]] = []
        for f, group in enumerate(groups):
            slots = slot_of[f]
            table: dict[int, list] = {}
            for rel in group.relations:
                if not rel.letters:
                    continue
                path = tuple((slots[g], s) for g, s in reversed(rel.letters))
                for sl in {i for i, _ in path}:
                    table.setdefault(sl, []).append(path)
            rel_by_slot.append(table)

        self.edge_comp = []
        self.edge_sing = []
        self.edge_constraints = []
        self.edge_checks = []
        # per fiber and slot, the edges whose constraints read that slot
        readers: list[list[list[int]]] = [[[] for _ in gens] for gens in self.gen_ids]
        for ei, e in enumerate(cfg.edges):
            cf = fiber_of[("c", e.component)]
            sf = fiber_of[("s", e.singular)]
            self.edge_comp.append(cf)
            self.edge_sing.append(sf)
            constraints = []
            for a in e.group.generators:
                psi_path = tuple((slot_of[cf][g], s)
                                 for g, s in reversed(e.psi.image(a).letters))
                phi_path = tuple((slot_of[sf][g], s)
                                 for g, s in reversed(e.phi.image(a).letters))
                if psi_path or phi_path:  # identity on both sides holds for any gluing
                    constraints.append((psi_path, phi_path))
            self.edge_constraints.append(constraints)
            self.edge_checks.append((cf, (), (ei,)) if constraints else None)
            for f, side in ((cf, 0), (sf, 1)):
                for sl in {sl for c in constraints for sl, _ in c[side]}:
                    readers[f][sl].append(ei)
        self.gen_checks = [
            [(f, tuple(rel_by_slot[f].get(sl, ())), tuple(readers[f][sl]))
             if sl in rel_by_slot[f] or readers[f][sl] else None
             for sl in range(len(gens))]
            for f, gens in enumerate(self.gen_ids)]


def _scan(st: _Structure, d: int, *, prune: bool = True):
    """Yield connected degree-d tuples, each once, as its least labelled
    table; with ``prune=False``, one labelled pointed table per (tuple,
    base point in the root fiber) pair instead.

    Points of each fiber are labelled in the order a fixed breadth-first
    scan from (root fiber, point 0) discovers them; a fresh label may only
    be introduced when every smaller label of that fiber is in use, which
    removes all per-fiber relabelling freedom.  Constraints (relators and
    edge equivariance) prune as soon as a trace is fully determined: each
    move re-checks only what its new entry can break (``_Structure``).

    A table is compared as the sequence of its entries in the order the
    scan fills them: the points in breadth-first order from (root fiber,
    point 0), and each point's moves in order.  A complete table is its
    own relabelling from base point 0.  From each other seed s of the root
    fiber the relabelling is built in that same order and compared as it
    is built: the point u at queue position k carries its new label p,
    the table's point at position k is p as long as the two sequences
    agree, and each move compares u's relabelled image with the table's
    entry at p.  The first difference decides the seed.  The sequence
    determines the table, so this is a total order, and exactly one table
    per tuple class is least, the one no seed relabels to a smaller one;
    emitting only those deduplicates without storing anything.

    The pruned scan also cuts every prefix that another base point of the
    root fiber relabels to a smaller one (orderly generation inside the
    search, as in the low-index subgroups algorithm).  Each seed s = 1..d-1
    keeps its relabelling so far (old label -> new label per fiber, and
    its old points in discovery order) and the scan position where its
    comparison with the table stopped, for want of an entry on either side.
    Once the entries set since the last choice point pass their checks and
    the scan has reached the next choice point, a complete table or a
    deduced entry with a check (see below), each seed resumes from there:
    a smaller relabelled entry rejects the last choice, a larger one
    retires the seed, since the table is then smaller than that
    relabelling whatever follows.  A dead end, where the queue
    runs out short of full, rejects the last choice without resuming any
    seed.  The leaves are then exactly the least tables of the unpruned
    scan, in the same order.

    An unset entry with exactly one candidate label is deduced rather than
    chosen: when the target fiber's n < d used labels all have a preimage,
    only the fresh label n is open, and when n = d only the one label
    without a preimage is.  The scan sets it and runs its check, with no
    frame and no label loop.  Seeds resume at choice points, at complete
    tables and before a deduced entry that has a check (a relator or edge
    trace costs more than a resumption), not before the other deduced
    entries.  A seed that rejects a deduced entry rejects the choice it
    was deduced from, since the entry had no alternative.

    The search runs on an explicit stack, so its depth is bounded by
    memory rather than by the interpreter's recursion limit, and keeps
    one trail: every change, in the order it happens, whether a seed
    moves (its position and point count before the move) or an entry is
    set (chosen or deduced).  Each frame is one choice point: (queue
    position, move index, trail mark), the mark being the trail length
    just before the entry was set, so the frame's label is the trail
    entry at its mark.  Backtracking a frame pops the trail back to its
    mark, undoing the changes newest first, and leaves the frame's next
    open label pending; ``rewind`` is the only undo.  The forward scan
    sets every label with the same lines and runs its check: a choice
    point's first, the least open one, a deduction's only one, and a
    backtracked frame's next.  Each complete table is yielded as
    ``(img, lam, aut)``: the live generator and gluing tables, which the
    caller must copy to keep, and, when pruning, the table's number of
    automorphisms (1 plus the seeds that tied to the end); without
    pruning, aut is None.
    """
    nf = len(st.fiber_names)
    ne = len(st.edge_comp)
    img = [[[-1] * d for _ in st.gen_ids[f]] for f in range(nf)]
    pre = [[[-1] * d for _ in st.gen_ids[f]] for f in range(nf)]
    lam = [[-1] * d for _ in range(ne)]
    lpre = [[-1] * d for _ in range(ne)]
    counts = [0] * nf
    queue: list[tuple[int, int]] = [(0, 0)]
    counts[0] = 1

    def trace(f: int, path, x: int) -> int:
        for sl, s in path:
            x = img[f][sl][x] if s > 0 else pre[f][sl][x]
            if x < 0:
                return -1
        return x

    def equivariant(ei: int) -> bool:
        cf, sf = st.edge_comp[ei], st.edge_sing[ei]
        row = lam[ei]
        for psi_path, phi_path in st.edge_constraints[ei]:
            for x in range(counts[cf]):
                y = trace(cf, psi_path, x)
                lhs = row[y] if y >= 0 else -1
                u = row[x]
                rhs = trace(sf, phi_path, u) if u >= 0 else -1
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        return True

    def holds(f: int, relators, edges) -> bool:
        for path in relators:
            for start in range(counts[f]):
                x = trace(f, path, start)
                if x >= 0 and x != start:
                    return False
        for ei in edges:
            if not equivariant(ei):
                return False
        return True

    # Every move sets fwd[p] = q and bwd[q] = p for a point p of its own
    # fiber and a point q of the target fiber tf.  Per fiber the moves come
    # in a fixed order: generator slots first (img, pre), then incident
    # edges in listed order, forward from components (lam, lpre) and
    # backward from singulars (lpre, lam).  The same order drives the
    # seed comparisons.
    plan = [[(img[f][sl], pre[f][sl], f, st.gen_checks[f][sl])
             for sl in range(len(gens))]
            for f, gens in enumerate(st.gen_ids)]
    for ei, (cf, sf) in enumerate(zip(st.edge_comp, st.edge_sing)):
        check = st.edge_checks[ei]
        plan[cf].append((lam[ei], lpre[ei], sf, check))
        plan[sf].append((lpre[ei], lam[ei], cf, check))
    full = nf * d  # the queue holds every labelled point exactly once

    # Seed state, index s = 1..d-1 (slot 0 unused).  The comparison of
    # seed s stopped at queue position at_k[s], move at_m[s]; at_k[s] is
    # `full` once the seed tied to the end and `retired` once the table
    # proved smaller.  maps[s][f*d + old] is the new label of an old point
    # (-1 while unmet), cnts[s][f] the labels it gave in fiber f, and
    # orders[s] its old points in discovery order; the fiber of
    # orders[s][k] is queue[k]'s, as long as the sequences agree.
    # A seed stopped at an unset entry waits on it: wait_row[s][wait_at[s]]
    # is that entry, `never` once the seed cannot move before a rewind, and
    # `ready` after one, so that a waiting seed costs one lookup per entry.
    seeds = range(1, d) if prune else range(0)
    retired = full + 1
    never, ready = [-1], [0]
    at_k, at_m = [0] * d, [0] * d
    wait_row, wait_at = [ready] * d, [0] * d
    maps: list[list[int]] = [[] for _ in range(d)]
    cnts: list[list[int]] = [[] for _ in range(d)]
    orders = [[s] for s in range(d)]
    for s in seeds:
        maps[s] = [-1] * full
        maps[s][s] = 0
        cnts[s] = [1] + [0] * (nf - 1)
    # Every change since the scan began, oldest first: (seed, at_k, at_m,
    # len(order)) before a seed moves, and (fwd, bwd, p, q, tf) when an entry
    # is set, with tf = -1 unless q was a fresh label of fiber tf.
    trail: list[tuple] = []

    def advance() -> bool:
        """Resume every seed that can move; False iff one relabels the
        table to a smaller one."""
        for s in seeds:
            if wait_row[s][wait_at[s]] < 0:
                continue
            k = k0 = at_k[s]
            m = m0 = at_m[s]
            order = orders[s]
            n = n0 = len(order)
            mp, cn = maps[s], cnts[s]
            smaller = False
            while k < n:
                f, p = queue[k]
                v = order[k]
                for row, _, tf, _ in plan[f][m:] if m else plan[f]:
                    t = row[v]
                    old = row[p]
                    if t < 0 or old < 0:
                        break
                    i = tf * d + t
                    new = mp[i]
                    if new != old:
                        if new < 0:
                            new = cn[tf]  # a fresh label, the least unused one
                            if new == old:
                                mp[i] = new
                                cn[tf] = new + 1
                                order.append(t)
                                n += 1
                                m += 1
                                continue
                        smaller = new < old
                        k = retired
                        break
                    m += 1
                else:
                    k += 1
                    m = 0
                    continue
                break
            if k < n:  # stopped at an unset entry
                wait_row[s], wait_at[s] = row, v if t < 0 else p
            else:  # tied to the end, retired, or short of its next point
                wait_row[s], wait_at[s] = never, 0
            if k != k0 or m != m0:
                trail.append((s, k0, m0, n0))
                at_k[s], at_m[s] = k, m
            if smaller:
                return False
        return True

    def rewind(mark: int) -> None:
        """Undo, newest first, every change logged since the trail had
        length mark; a seed's points are then still in the queue."""
        while len(trail) > mark:
            change = trail.pop()
            if len(change) == 4:
                s, k, m, size = change
                order, mp, cn = orders[s], maps[s], cnts[s]
                while len(order) > size:
                    t = order.pop()
                    f = queue[len(order)][0]
                    mp[f * d + t] = -1
                    cn[f] -= 1
                at_k[s], at_m[s] = k, m
                wait_row[s], wait_at[s] = ready, 0
            else:
                fwd, bwd, p, q, tf = change
                fwd[p] = bwd[q] = -1
                if tf >= 0:
                    counts[tf] = q
                    queue.pop()

    stack: list[tuple[int, int, int]] = []
    qi = mi = 0
    q = -1  # a backtracked frame's next label, pending until the scan sets it
    while True:
        # Advance past assigned moves to the next choice point, or to the
        # end of the queue, where a table with every fiber full is complete.
        # An entry with one candidate label is set on the way; the choices
        # since the last choice point stand only if no seed then relabels
        # the table to a smaller one.  A dead end, short of full, or a
        # deduced entry that fails its check needs no seed; seeds resume
        # before a deduced entry that has a check, so that a rejection is
        # seen before the check is paid for.  A pending label goes to the
        # first unset entry, its frame's, with no frame push and no seed.
        while qi < len(queue):
            f, p = queue[qi]
            for fwd, bwd, tf, check in plan[f][mi:] if mi else plan[f]:
                if fwd[p] < 0:
                    n = counts[tf]
                    if q < 0:
                        free = bwd.count(-1)  # the d - n fresh points, and gaps below n
                        # the least open label, a deduction's only one
                        q = bwd.index(-1)
                        if free != d - n and free != 1:  # a choice point
                            if not advance():
                                break
                            stack.append((qi, mi, len(trail)))
                        elif check is not None and not advance():
                            break  # a seed rejects an entry set before this one
                    fwd[p], bwd[q] = q, p
                    if q == n:
                        counts[tf] = n + 1
                        queue.append((tf, q))
                    trail.append((fwd, bwd, p, q, tf if q == n else -1))
                    q = -1
                    if check is not None and not holds(*check):
                        break
                mi += 1
            else:
                qi, mi = qi + 1, 0
                continue
            break
        else:
            if len(queue) == full and advance():
                yield img, lam, (1 + sum(at_k[s] == full for s in seeds)
                                 if prune else None)

        # Undo everything since the top frame's last label and leave its
        # next open one pending for the scan; pop frames whose labels are
        # exhausted.
        while stack:
            qi, mi, mark = stack[-1]
            q = trail[mark][3]  # the frame's label, which rewind pops
            rewind(mark)
            _, bwd, tf, _ = plan[queue[qi][0]][mi]
            for q in range(q + 1, min(counts[tf] + 1, d)):
                if bwd[q] < 0:
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return
