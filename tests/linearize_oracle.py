"""Brute-force linearization oracle: a second judge of the checker's
linearizability verdicts, for small histories only."""

from byzregs.checker import OpRecord


class TooLarge(Exception):
    pass


def oracle_linearize(history: list[OpRecord], cap: int = 8) -> bool:
    """Ground truth by exhaustive search: is there a total order of the
    honest operations extending precedence in which every read returns the
    latest preceding write's value (v_0 if none)?

    Pending writes may be placed anywhere after their invocation or dropped.
    With a malicious writer the Byzantine definition is vacuous: True.
    """
    writer_ops = [op for op in history if op.kind == "Write"]
    if any(not op.honest for op in writer_ops):
        return True
    ops = [
        op
        for op in history
        if op.honest and (op.kind == "Write" or op.completed())
    ]
    reads = [op for op in ops if op.kind == "Read"]
    if any(r.bottom for r in reads):
        return False
    if any(r.index is None for r in reads):
        return False
    if len(ops) > cap:
        raise TooLarge(f"{len(ops)} operations exceeds the cap of {cap}")

    mandatory = frozenset(i for i, op in enumerate(ops) if op.completed())
    preds: list[frozenset[int]] = []
    for i, a in enumerate(ops):
        preds.append(
            frozenset(
                j
                for j, b in enumerate(ops)
                if j != i
                and b.respond_step is not None
                and b.respond_step < a.invoke_step
                and j in mandatory
            )
        )

    seen: set[tuple[frozenset[int], int]] = set()

    def search(placed: frozenset[int], last: int) -> bool:
        if mandatory <= placed:
            return True
        key = (placed, last)
        if key in seen:
            return False
        seen.add(key)
        for i, op in enumerate(ops):
            if i in placed or not preds[i] <= placed:
                continue
            if op.kind == "Write":
                if search(placed | {i}, op.index):
                    return True
            else:
                if op.index == last and search(placed | {i}, last):
                    return True
        return False

    return search(frozenset(), 0)
