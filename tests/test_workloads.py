"""The benchmark's query texts are printed by ``print_plqo``, so a printer
change can silently change what the benchmark measures: pin a digest of
every query text per workload and seed.  ``perfbench/workloads.py`` is
imported, never written."""

import hashlib

import pytest

from formgen import perfbench_workloads

# sha256 over "id<TAB>api<TAB>text...<LF>" per query, in workload order.
PINNED = {
    (1, "valid-ladder"): "015a12991b4fd21c152e08b26806ee0815f0ed279413d2ff33f18432dd78fa2d",
    (1, "countermodel-ladder"): "0e72557284db7a292048122125c63283fc5ad641eaabee63ab7f62071a823614",
    (1, "acceptance-mix"): "c98438437b5fc31e661caef9911b76e4e76209ea0b4dae51a37bdf81c649eb36",
    (2, "valid-ladder"): "015a12991b4fd21c152e08b26806ee0815f0ed279413d2ff33f18432dd78fa2d",
    (2, "countermodel-ladder"): "0e72557284db7a292048122125c63283fc5ad641eaabee63ab7f62071a823614",
    (2, "acceptance-mix"): "fe0f29b6b5cf05912f0eaf212e50bc6f2a3174ea9af1a6da4c3bee0175d89880",
}


@pytest.fixture(scope="module")
def workloads():
    return perfbench_workloads()


@pytest.mark.parametrize("seed, name", list(PINNED), ids=[f"{n}-seed{s}" for s, n in PINNED])
def test_workload_query_texts_are_pinned(workloads, seed, name):
    digest = hashlib.sha256()
    for q in workloads.build(name, seed):
        digest.update(("\t".join((q.id, q.api) + q.texts) + "\n").encode())
    assert digest.hexdigest() == PINNED[seed, name]
