"""Gossip-replicated application database.

Every robot keeps, per (origin, key), the highest-sequence record it has
heard of, from any robot. Pairs in contact exchange frontiers and ship each
other whatever the peer is missing, so data rides along on intermediaries
(data-muling). State-based last-writer-wins by sequence number: merge is
idempotent, commutative, and associative.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DbRecord:
    origin: int
    key: str
    seq: int
    payload: bytes


class Database:
    """One robot's replica. Only the owner mints new records (put_local).

    ``version`` counts the records stored so far, minted or merged: two
    replicas that left a sync equal stay equal while neither count moves.
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.records: dict[tuple[int, str], DbRecord] = {}
        self.version = 0

    def put_local(self, key: str, payload: bytes) -> DbRecord:
        cur = self.records.get((self.owner, key))
        seq = 1 if cur is None else cur.seq + 1
        rec = DbRecord(origin=self.owner, key=key, seq=seq, payload=payload)
        self.records[(self.owner, key)] = rec
        self.version += 1
        return rec

    def get(self, origin: int, key: str) -> DbRecord | None:
        return self.records.get((origin, key))

    def summary(self) -> list[tuple[int, str, int]]:
        """Frontier: one (origin, key, seq) triple per stored record."""
        return sorted((o, k, r.seq) for (o, k), r in self.records.items())

    def diff(self, their_summary: list[tuple[int, str, int]]) -> list[DbRecord]:
        """Records the peer lacks or holds at a lower sequence."""
        theirs = {(o, k): seq for o, k, seq in their_summary}
        out = [
            rec
            for (o, k), rec in self.records.items()
            if theirs.get((o, k), 0) < rec.seq
        ]
        out.sort(key=lambda r: (r.origin, r.key))
        return out

    def merge(self, records: list[DbRecord]) -> int:
        """Apply incoming records; newer sequence wins, ties keep stored."""
        applied = 0
        for rec in records:
            cur = self.records.get((rec.origin, rec.key))
            if cur is None or rec.seq > cur.seq:
                self.records[(rec.origin, rec.key)] = rec
                applied += 1
        self.version += applied
        return applied

    def __len__(self) -> int:
        return len(self.records)


def sync_pair(a: Database, b: Database) -> tuple[int, int]:
    """Anti-entropy exchange; afterwards both replicas are identical.

    Returns (records applied at b, records applied at a).
    """
    sum_a = a.summary()
    sum_b = b.summary()
    applied_b = b.merge(a.diff(sum_b))
    applied_a = a.merge(b.diff(sum_a))
    return applied_b, applied_a
