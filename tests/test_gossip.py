"""Gossip database: LWW merge semantics, anti-entropy sync, muling."""

import hashlib

import numpy as np

from semteam.gossip import Database, DbRecord, sync_pair

KEYS = ["map", "pose", "claims", "failures"]


def canonical_payload(origin, key, seq):
    return hashlib.sha1(f"{origin}:{key}:{seq}".encode()).digest()[:6]


def random_records(rng, n, n_origins=4, max_seq=12):
    """Records drawn from a single-writer-consistent universe: one payload
    per (origin, key, seq) identity."""
    out = []
    for _ in range(n):
        o = int(rng.integers(0, n_origins))
        k = KEYS[int(rng.integers(0, len(KEYS)))]
        s = int(rng.integers(1, max_seq + 1))
        out.append(DbRecord(o, k, s, payload=canonical_payload(o, k, s)))
    return out


class TestPutLocal:
    def test_first_put_seq_one(self):
        db = Database(owner=3)
        rec = db.put_local("pose", b"xy")
        assert rec.seq == 1
        assert db.get(3, "pose") == rec

    def test_second_put_replaces(self):
        db = Database(owner=1)
        db.put_local("pose", b"a")
        rec = db.put_local("pose", b"b")
        assert rec.seq == 2
        assert db.get(1, "pose").payload == b"b"
        assert len(db) == 1

    def test_thousand_puts(self):
        db = Database(owner=0)
        for i in range(1000):
            rec = db.put_local("map", bytes([i % 256]))
        assert rec.seq == 1000
        assert len(db) == 1


class TestDiff:
    def test_identical_summaries_empty_diff(self):
        a, b = Database(0), Database(1)
        a.put_local("pose", b"p")
        sync_pair(a, b)
        assert a.diff(b.summary()) == []
        assert b.diff(a.summary()) == []

    def test_missing_key_returned(self):
        a, b = Database(1), Database(2)
        a.put_local("map", b"m")
        out = a.diff(b.summary())
        assert [(r.origin, r.key) for r in out] == [(1, "map")]

    def test_matches_brute_force_comparison(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = Database(0), Database(1)
            a.merge(random_records(rng, 15))
            b.merge(random_records(rng, 15))
            got = {(r.origin, r.key, r.seq) for r in a.diff(b.summary())}
            expect = set()
            for (o, k), rec in a.records.items():
                other = b.records.get((o, k))
                if other is None or rec.seq > other.seq:
                    expect.add((o, k, rec.seq))
            assert got == expect


class TestMerge:
    def test_own_frontier_idempotent(self):
        db = Database(0)
        db.put_local("pose", b"p")
        db.put_local("map", b"m")
        before = dict(db.records)
        assert db.merge(list(db.records.values())) == 0
        assert db.records == before

    def test_newer_seq_wins(self):
        a, b = Database(0), Database(1)
        a.put_local("pose", b"v1")
        a.put_local("pose", b"v2")
        b.merge([DbRecord(0, "pose", 1, b"v1")])
        applied = b.merge([a.get(0, "pose")])
        assert applied == 1
        assert b.get(0, "pose").seq == 2

    def test_stale_rejected(self):
        b = Database(1)
        b.merge([DbRecord(0, "pose", 5, b"v5")])
        assert b.merge([DbRecord(0, "pose", 3, b"v3")]) == 0
        assert b.get(0, "pose").payload == b"v5"

    def test_mule_chain(self):
        ground_a, uav, ground_b = Database(0), Database(1), Database(2)
        ground_a.put_local("claims", b"roi-7")
        sync_pair(ground_a, uav)
        sync_pair(uav, ground_b)
        rec = ground_b.get(0, "claims")
        assert rec is not None and rec.payload == b"roi-7"

    def test_merge_properties_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            base = random_records(rng, 8)
            p = random_records(rng, 6)
            q = random_records(rng, 6)

            def state(batches):
                db = Database(99)
                for batch in batches:
                    db.merge(batch)
                return db.records

            # idempotent, commutative, associative
            assert state([base, p, p]) == state([base, p])
            assert state([base, p, q]) == state([base, q, p])
            assert state([p, q]) == state([p + q])


class TestSyncPair:
    def test_sync_with_copy_is_noop(self):
        a = Database(0)
        a.put_local("pose", b"p")
        b = Database(1)
        b.merge(list(a.records.values()))
        applied = sync_pair(a, b)
        assert applied == (0, 0)

    def test_disjoint_union(self):
        a, b = Database(0), Database(1)
        a.put_local("map", b"m")
        b.put_local("pose", b"p")
        sync_pair(a, b)
        assert a.records == b.records
        assert len(a) == 2

    def test_drop_then_resync_reaches_fixed_point(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a1, b1 = Database(0), Database(1)
            a1.merge(random_records(rng, 10))
            b1.merge(random_records(rng, 10))
            a2 = Database(0)
            a2.merge(list(a1.records.values()))
            b2 = Database(1)
            b2.merge(list(b1.records.values()))

            sync_pair(a1, b1)  # clean exchange
            b2.merge(a2.diff(b2.summary()))  # link drops after the first phase
            assert a2.records != b2.records or a1.records == a2.records
            sync_pair(a2, b2)  # next contact
            assert a2.records == a1.records
            assert b2.records == b1.records

    def test_seq_never_decreases(self):
        rng = np.random.default_rng(3)
        db = Database(0)
        high_water: dict[tuple[int, str], int] = {}
        for _ in range(200):
            db.merge(random_records(rng, 3))
            for (o, k), rec in db.records.items():
                assert rec.seq >= high_water.get((o, k), 0)
                high_water[(o, k)] = rec.seq


class TestConvergence:
    def test_connected_contact_traces_converge(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(3, 7))
            dbs = [Database(i) for i in range(n)]
            for db in dbs:
                for key in KEYS:
                    db.put_local(key, canonical_payload(db.owner, key, 1))
            # random contact trace with interleaved writes
            edges = set()
            for step_i in range(40):
                i, j = rng.choice(n, size=2, replace=False)
                sync_pair(dbs[i], dbs[j])
                edges.add((min(i, j), max(i, j)))
                if rng.random() < 0.3:
                    w = int(rng.integers(0, n))
                    dbs[w].put_local("pose", canonical_payload(w, "pose", step_i))
            if _components(n, edges) != 1:
                continue
            # drive to quiescence over the same (connected) edge set
            for _ in range(n + 2):
                applied = 0
                for i, j in sorted(edges):
                    d = sync_pair(dbs[i], dbs[j])
                    applied += d[0] + d[1]
                if applied == 0:
                    break
            assert all(db.records == dbs[0].records for db in dbs), f"trial {trial} did not converge"


def _components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(n)})



class TestVersion:
    def test_counts_every_record_stored(self):
        a, b = Database(0), Database(1)
        a.put_local("pose", b"p1")
        a.put_local("pose", b"p2")
        assert a.version == 2
        assert b.merge(list(a.records.values())) == 1 and b.version == 1
        assert b.merge(list(a.records.values())) == 0 and b.version == 1

    def test_unmoved_versions_after_a_sync_mean_nothing_to_ship(self):
        """Random writes, merges and syncs on four replicas: whenever both
        versions of a pair are those it left its last sync with, neither
        replica holds anything the other lacks."""
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            dbs = [Database(i) for i in range(4)]
            synced = {}
            for step in range(60):
                op = rng.random()
                w = int(rng.integers(0, 4))
                if op < 0.25:
                    key = KEYS[int(rng.integers(0, len(KEYS)))]
                    dbs[w].put_local(key, canonical_payload(w, key, step))
                elif op < 0.45:
                    dbs[w].merge(random_records(rng, 2))
                else:
                    i, j = sorted(int(k) for k in rng.choice(4, size=2, replace=False))
                    sync_pair(dbs[i], dbs[j])
                    synced[i, j] = (dbs[i].version, dbs[j].version)
                for (i, j), versions in synced.items():
                    if (dbs[i].version, dbs[j].version) == versions:
                        assert dbs[i].diff(dbs[j].summary()) == []
                        assert dbs[j].diff(dbs[i].summary()) == []
                        checked += 1
        assert checked > 1000
