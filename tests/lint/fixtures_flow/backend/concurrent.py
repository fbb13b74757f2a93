"""The sanctioned pricing executor: REP106 must stay silent here.

The path ``backend/concurrent.py`` *is* the exemption — this is the one
module allowed to fan pricing out over a pool (the real executor commits
the speculative results in serial submission order).
"""

from concurrent.futures import ThreadPoolExecutor


def price_shards(backend, shards):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda shard: backend._price_shard(shard), shards))
