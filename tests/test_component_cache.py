"""The cached Greedy-k component decomposition against a fresh one.

``saturation.greedy.ComponentCache`` repairs the bipartite killing-component
decomposition across reduction iterations instead of recomputing it; every
repair must equal ``_bipartite_components`` on the same potential-killers map.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.context import context_for
from repro.codes.generator import layered_random_ddg
from repro.core.types import INT
from repro.saturation.greedy import ComponentCache, _bipartite_components
from repro.saturation.pkill import potential_killers_map


class TestComponentCache:
    def _pk(self, seed, nodes=20):
        ddg = layered_random_ddg(nodes=nodes, layers=4, seed=seed).with_bottom()
        return potential_killers_map(ddg, INT, context_for(ddg))

    @pytest.mark.parametrize("seed", range(5))
    def test_repair_matches_fresh_decomposition(self, seed):
        pk = dict(self._pk(seed))
        cache = ComponentCache()
        rng = random.Random(seed)
        assert cache.decompose(pk) == _bipartite_components(pk)
        for _round in range(8):
            values = list(pk)
            for v in rng.sample(values, rng.randint(1, 3)):
                row = list(pk[v])
                if row and rng.random() < 0.5:
                    row.pop(rng.randrange(len(row)))
                pk[v] = row  # fresh object: marks the value dirty
            assert cache.decompose(pk) == _bipartite_components(pk), _round
        assert cache.reused > 0

    def test_clean_iteration_reuses_every_component(self):
        pk = dict(self._pk(2))
        cache = ComponentCache()
        first = cache.decompose(pk)
        again = cache.decompose(dict(pk))  # same row objects, new dict
        assert again == first
        assert cache.reused == len(first)

    def test_key_set_change_forces_rebuild(self):
        pk = dict(self._pk(3))
        cache = ComponentCache()
        cache.decompose(pk)
        smaller = dict(pk)
        smaller.pop(next(iter(smaller)))
        assert cache.decompose(smaller) == _bipartite_components(smaller)


def test_component_reuse_surfaces_in_engine_stats():
    from repro.codes import kernel_suite
    from repro.reduction import reduce_saturation_heuristic

    entry = {e.name: e for e in kernel_suite()}["linpack-daxpy-u4"]
    ddg, rtype = entry.ddg, entry.ddg.register_types()[0]
    result = reduce_saturation_heuristic(ddg.copy(), rtype, 4, engine="incremental")
    stats = result.details["engine_stats"]
    assert stats["components_reused"] > 0
    assert "greedy_decompose" in stats["stage_timings"]
